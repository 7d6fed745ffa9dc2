//! Shape-resolved kernels for the Eff-TT chain's small GEMMs.
//!
//! Every TT table the workloads build is order 3 and dim 32 (`col_dims =
//! [2, 4, 4]`) at rank `R ∈ {8, 16, 32}`, so the chain only ever multiplies
//! six shapes per rank:
//!
//! | op | replaces | shapes (in the replaced fn's argument order) |
//! |---|---|---|
//! | [`Op::GemmNn`] | [`gemm_nn`](crate::gemm::gemm_nn) with `alpha = 1, beta = 0` | `(2, 4R, R)`, `(8, 4, R)` |
//! | [`Op::AddABt`] | [`add_a_bt`](crate::gemm::add_a_bt) | `(8, R, 4)`, `(2, R, 4R)` |
//! | [`Op::AddAtB`] | [`add_at_b`](crate::gemm::add_at_b) | `(8, R, 4)`, `(2, R, 4R)` |
//!
//! Each loop body is written once, generic over its dimensions, and a macro
//! instantiates it with literal dimensions for those 18 shapes — so the
//! compiler sees constant trip counts and keeps the output row in
//! registers. The bodies run the generic functions' exact per-element
//! operation sequence, so they produce the same bits (DESIGN.md §2.2,
//! "small-shape table"). Callers resolve a kernel once per level with
//! [`resolve`]; a shape off the table resolves to `None` and stays on the
//! generic function.

/// The generic product a table kernel replaces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `C = A·B`, dims `(m, n, k)`: `a` is `m x k`, `b` is `k x n`.
    GemmNn,
    /// `C += A·Bᵀ`, dims `(m, n, k)`: `a` is `m x k` and the kernel's `b`
    /// argument is the **pre-transposed** `Bᵀ`, stored `k x n` (the
    /// generic fn reads `B` as `n x k`).
    AddABt,
    /// `C += Aᵀ·B`, dims `(p, m, n)`: `a` is `p x m`, `b` is `p x n`.
    AddAtB,
}

/// A resolved table kernel: `kern(a, b, c)` with the operand layouts of its
/// [`Op`]. Panics unless every operand has its exact length.
pub type SmallGemm = fn(&[f32], &[f32], &mut [f32]);

/// The table kernel for `op` at `dims`, or `None` off the table.
pub fn resolve(op: Op, dims: [usize; 3]) -> Option<SmallGemm> {
    TABLE.iter().find(|e| e.op == op && e.dims == dims).map(|e| e.f)
}

/// Every `(op, dims)` the table holds.
pub fn shapes() -> impl Iterator<Item = (Op, [usize; 3])> {
    TABLE.iter().map(|e| (e.op, e.dims))
}

/// `C = A·X` (`ACC = false`) or `C += A·X` (`ACC = true`) for row-major `a`
/// (`M x K`), `x` (`K x N`), `c` (`M x N`): each output row accumulates in
/// `N` lanes from zero over ascending `k`, then is stored or added.
///
/// That is [`gemm_nn_axpy`](crate::gemm::gemm_nn_axpy)'s order at `alpha =
/// 1, beta = 0` (`c = 0; c += a·b`) and, with `x = Bᵀ`,
/// [`add_a_bt`](crate::gemm::add_a_bt)'s (`acc = 0; acc += a·b; c += acc`).
#[inline(always)]
fn rows<const M: usize, const N: usize, const K: usize, const ACC: bool>(
    a: &[f32],
    x: &[f32],
    c: &mut [f32],
) {
    assert_eq!(a.len(), M * K, "A must be m x k");
    assert_eq!(x.len(), K * N, "B must be k x n");
    assert_eq!(c.len(), M * N, "C must be m x n");
    for (a_row, c_row) in a.chunks_exact(K).zip(c.chunks_exact_mut(N)) {
        let mut acc = [0.0f32; N];
        for (&av, x_row) in a_row.iter().zip(x.chunks_exact(N)) {
            for (s, &xv) in acc.iter_mut().zip(x_row) {
                *s += av * xv;
            }
        }
        if ACC {
            for (cv, s) in c_row.iter_mut().zip(acc) {
                *cv += s;
            }
        } else {
            c_row.copy_from_slice(&acc);
        }
    }
}

/// `C += Aᵀ·B` for row-major `a` (`P x M`), `b` (`P x N`), `c` (`M x N`):
/// each output row is loaded into `N` lanes and takes one product per row
/// of `a`/`b` in ascending order — [`add_at_b`](crate::gemm::add_at_b)'s
/// rank-1 order.
#[inline(always)]
fn cols<const P: usize, const M: usize, const N: usize>(a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), P * M, "A must be p x m");
    assert_eq!(b.len(), P * N, "B must be p x n");
    assert_eq!(c.len(), M * N, "C must be m x n");
    for (i, c_row) in c.chunks_exact_mut(N).enumerate() {
        let mut acc = [0.0f32; N];
        acc.copy_from_slice(c_row);
        for (a_row, b_row) in a.chunks_exact(M).zip(b.chunks_exact(N)) {
            let av = a_row[i];
            for (s, &bv) in acc.iter_mut().zip(b_row) {
                *s += av * bv;
            }
        }
        c_row.copy_from_slice(&acc);
    }
}

/// One table row: the kernel of one shape.
struct Entry {
    op: Op,
    dims: [usize; 3],
    f: SmallGemm,
}

/// The six shapes of an order-3, dim-32 chain at each listed rank.
macro_rules! tt_dim32_table {
    ($($r:literal),*) => {
        [$(
            // Forward levels 1 and 2: C = A·B.
            Entry {
                op: Op::GemmNn,
                dims: [2, 4 * $r, $r],
                f: rows::<2, { 4 * $r }, $r, false>,
            },
            Entry {
                op: Op::GemmNn,
                dims: [8, 4, $r],
                f: rows::<8, 4, $r, false>,
            },
            // Backward chain pass, levels 2 and 1: C += A·Bᵀ.
            Entry {
                op: Op::AddABt,
                dims: [8, $r, 4],
                f: rows::<8, $r, 4, true>,
            },
            Entry {
                op: Op::AddABt,
                dims: [2, $r, 4 * $r],
                f: rows::<2, $r, { 4 * $r }, true>,
            },
            // Backward core pass, levels 2 and 1: C += Aᵀ·B.
            Entry {
                op: Op::AddAtB,
                dims: [8, $r, 4],
                f: cols::<8, $r, 4>,
            },
            Entry {
                op: Op::AddAtB,
                dims: [2, $r, 4 * $r],
                f: cols::<2, $r, { 4 * $r }>,
            },
        )*]
    };
}

static TABLE: [Entry; 18] = tt_dim32_table!(8, 16, 32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_table_shapes_resolve_to_none() {
        assert!(resolve(Op::GemmNn, [8, 4, 12]).is_none());
        assert!(resolve(Op::AddAtB, [2, 16, 4]).is_none());
        assert_eq!(shapes().count(), 18);
    }

    #[test]
    #[should_panic(expected = "A must be m x k")]
    fn wrong_operand_length_panics() {
        let kern = resolve(Op::GemmNn, [8, 4, 8]).expect("on the table");
        kern(&[0.0; 63], &[0.0; 32], &mut [0.0; 32]);
    }
}
