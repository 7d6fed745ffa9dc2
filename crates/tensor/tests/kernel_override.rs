//! The `set_kernel` hook pins process-global dispatch, so its test runs in
//! a process of its own: in the library's unit-test binary it would flip
//! the kernel under the tests that compare two GEMMs bit for bit.

use el_tensor::gemm::{gemm_ref, Trans};
use el_tensor::micro::{self, gemm_packed, Kernel, Layout, MR, NR};
use rand::{Rng, SeedableRng};

/// The registry hook: each supported kernel can be pinned, reports its
/// own name, and produces results matching the reference; `None` hands
/// dispatch back to the environment.
#[test]
fn kernel_override_hook_selects_each_supported_variant() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(47);
    let (m, n, k) = (MR * 3 + 1, NR * 2 + 3, 33);
    let mut rand_vec =
        |len: usize| -> Vec<f32> { (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect() };
    let a = rand_vec(m * k);
    let b = rand_vec(k * n);
    let mut c_ref = vec![0.0; m * n];
    gemm_ref(m, n, k, 1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c_ref);
    let default = micro::active_kernel();
    for kern in Kernel::ALL {
        if !kern.supported() {
            continue;
        }
        micro::set_kernel(Some(kern));
        assert_eq!(micro::active_kernel(), kern.name());
        let mut c = vec![0.0; m * n];
        let (la, lb) = (Layout::row_major(k), Layout::row_major(n));
        gemm_packed(m, n, k, 1.0, &a, la, &b, lb, 0.0, &mut c);
        for (i, (x, y)) in c_ref.iter().zip(&c).enumerate() {
            assert!((x - y).abs() <= 1e-4 * (1.0 + x.abs().max(y.abs())), "{}: {i}", kern.name());
        }
    }
    micro::set_kernel(None);
    assert_eq!(micro::active_kernel(), default);
}
