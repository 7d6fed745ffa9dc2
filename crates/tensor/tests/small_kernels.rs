//! Every entry of the small-shape kernel table (`el_tensor::small`) against
//! the generic function it replaces.
//!
//! Inputs mix ordinary values with ±0, ±inf, subnormals, NaN and values
//! whose products overflow. Outputs must be bit-equal, except that any NaN
//! equals any NaN: LLVM may commute an IEEE add, which can change only a
//! NaN's payload, never which outputs are NaN or any other bit.

use el_tensor::gemm::{add_a_bt, add_at_b, gemm_nn};
use el_tensor::small::{self, Op};
use proptest::prelude::*;

const SPECIALS: [f32; 10] = [
    0.0,
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    1.0e-45, // smallest subnormal
    -3.0e-39,
    f32::MIN_POSITIVE,
    3.0e38,
    -3.0e38,
];

/// Deterministic fill: with probability `special_per_16 / 16` an entry is
/// drawn from [`SPECIALS`], otherwise it is a finite value of magnitude
/// 2^-20 .. 2^20.
fn fill(seed: u64, special_per_16: u64, len: usize) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..len)
        .map(|_| {
            let r = next();
            if r % 16 < special_per_16 {
                SPECIALS[(r >> 8) as usize % SPECIALS.len()]
            } else {
                let unit = (r >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
                unit * 2f32.powi((r >> 20) as i32 % 41 - 20)
            }
        })
        .collect()
}

fn same(x: f32, y: f32) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

/// Runs the generic fn and the table kernel on the same operands and
/// compares every output.
fn check_entry(op: Op, dims: [usize; 3], seed: u64, specials: u64) -> Result<(), String> {
    let [d0, d1, d2] = dims;
    let (a_len, b_len, c_len) = match op {
        Op::AddAtB => (d0 * d1, d0 * d2, d1 * d2),
        Op::GemmNn | Op::AddABt => (d0 * d2, d2 * d1, d0 * d1),
    };
    let a = fill(seed, specials, a_len);
    let b = fill(seed ^ 0xB0B, specials, b_len);
    let c0 = fill(seed ^ 0xC0C, specials, c_len);

    let mut want = c0.clone();
    let b_kernel = match op {
        Op::GemmNn => {
            gemm_nn(d0, d1, d2, 1.0, &a, &b, 0.0, &mut want);
            b.clone()
        }
        Op::AddABt => {
            // `b` is B (n x k) for the generic fn; the kernel reads B^T.
            add_a_bt(d0, d1, d2, &a, &b, &mut want);
            let mut bt = vec![0.0; b_len];
            for (j, row) in b.chunks_exact(d2).enumerate() {
                for (p, &v) in row.iter().enumerate() {
                    bt[p * d1 + j] = v;
                }
            }
            bt
        }
        Op::AddAtB => {
            add_at_b(d0, d1, d2, &a, &b, &mut want);
            b.clone()
        }
    };

    let kern = small::resolve(op, dims).expect("entry resolves");
    let mut got = c0.clone();
    kern(&a, &b_kernel, &mut got);
    for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
        prop_assert!(same(g, w), "{:?} {:?}: c[{}] = {} vs generic {}", op, dims, i, g, w);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every table entry bit-equal to the generic fn.
    #[test]
    fn table_kernels_match_generic_fns_bit_for_bit(
        seed in 0u64..1_000_000,
        specials in prop_oneof![Just(0u64), Just(1), Just(4), Just(16)],
    ) {
        for (op, dims) in small::shapes() {
            check_entry(op, dims, seed, specials)?;
        }
    }
}

/// Hand-picked cases the random fill may miss: a sum of `-0.0` products
/// (`+0.0`, because the generic loop starts from `+0.0`), `inf - inf` and
/// `0 * inf` inside one accumulation.
#[test]
fn signed_zero_and_infinity_cancellation() {
    let (op, dims) = (Op::GemmNn, [8usize, 4, 8]);
    let mut a = vec![0.0f32; 64];
    let mut b = vec![0.0f32; 32];
    for p in 0..8 {
        b[p * 4] = 1.0;
    }
    // Row 0: every product into c[0][0] is -0.
    a[..8].fill(-0.0);
    // Row 1: inf, then -inf -> NaN in c[1][0].
    a[8] = f32::INFINITY;
    a[9] = f32::NEG_INFINITY;
    // Column 1: 0 * inf -> NaN in every row.
    b[1] = f32::INFINITY;
    let mut want = vec![f32::NAN; 32];
    gemm_nn(8, 4, 8, 1.0, &a, &b, 0.0, &mut want);
    assert_eq!(want[0].to_bits(), 0.0f32.to_bits());
    assert!(want[4].is_nan() && want[1].is_nan());
    let kern = small::resolve(op, dims).expect("on the table");
    let mut got = vec![f32::NAN; 32];
    kern(&a, &b, &mut got);
    for (i, (&g, &w)) in got.iter().zip(&want).enumerate() {
        assert!(same(g, w), "c[{i}] = {g} vs generic {w}");
    }
}
