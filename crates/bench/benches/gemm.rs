//! Criterion microbenchmark: the GEMM substrate.
//!
//! The batched-GEMM engine is the cuBLAS stand-in every Eff-TT kernel sits
//! on; these benches pin its scaling (many small products, the TT slice
//! shapes) and the blocked single-GEMM kernel against the naive oracle.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use el_tensor::batched::{batched_gemm, batched_gemm_seq, GemmBatch};
use el_tensor::gemm::{gemm, gemm_nn, gemm_nn_axpy, gemm_ref, Trans};
use el_tensor::micro::{gemm_packed, set_kernel, Kernel, Layout};
use el_tensor::small::{self, Op};
use rand::{Rng, SeedableRng};

fn rand_vec(n: usize, rng: &mut impl Rng) -> Vec<f32> {
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn bench_single_gemm(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("gemm_single");
    for &n in &[64usize, 256] {
        let a = rand_vec(n * n, &mut rng);
        let b = rand_vec(n * n, &mut rng);
        let mut cbuf = vec![0.0f32; n * n];
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |bch, _| {
            bch.iter(|| gemm_nn(n, n, n, 1.0, &a, &b, 0.0, &mut cbuf));
        });
        if n <= 64 {
            group.bench_with_input(BenchmarkId::new("reference", n), &n, |bch, _| {
                bch.iter(|| gemm_ref(n, n, n, 1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut cbuf));
            });
        }
    }
    group.finish();
}

/// Packed micro-kernel vs the blocked axpy loop on square shapes around and
/// above the dispatch cutoff — the numbers behind the ≥2x claim.
fn bench_packed_vs_axpy(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut group = c.benchmark_group("gemm_packed");
    for &n in &[128usize, 192, 256, 384] {
        let a = rand_vec(n * n, &mut rng);
        let b = rand_vec(n * n, &mut rng);
        let mut cbuf = vec![0.0f32; n * n];
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        group.bench_with_input(BenchmarkId::new("packed", n), &n, |bch, _| {
            bch.iter(|| {
                gemm_packed(
                    n,
                    n,
                    n,
                    1.0,
                    &a,
                    Layout::row_major(n),
                    &b,
                    Layout::row_major(n),
                    0.0,
                    &mut cbuf,
                )
            });
        });
        group.bench_with_input(BenchmarkId::new("axpy", n), &n, |bch, _| {
            bch.iter(|| gemm_nn_axpy(n, n, n, 1.0, &a, &b, 0.0, &mut cbuf));
        });
    }
    group.finish();
}

/// The same packed GEMM under every micro-kernel this CPU supports — the
/// dispatch-tier comparison behind the `EL_KERNEL` override. Each variant
/// is pinned with `set_kernel` for the duration of its measurements, so the
/// rows differ only in the inner kernel (packing and blocking identical).
fn bench_kernel_sweep(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut group = c.benchmark_group("gemm_kernels");
    for &n in &[128usize, 256, 384] {
        let a = rand_vec(n * n, &mut rng);
        let b = rand_vec(n * n, &mut rng);
        let mut cbuf = vec![0.0f32; n * n];
        group.throughput(Throughput::Elements((2 * n * n * n) as u64));
        for kernel in Kernel::ALL {
            if !kernel.supported() {
                continue;
            }
            set_kernel(Some(kernel));
            group.bench_with_input(BenchmarkId::new(kernel.name(), n), &n, |bch, _| {
                bch.iter(|| {
                    gemm_packed(
                        n,
                        n,
                        n,
                        1.0,
                        &a,
                        Layout::row_major(n),
                        &b,
                        Layout::row_major(n),
                        0.0,
                        &mut cbuf,
                    )
                });
            });
            set_kernel(None);
        }
    }
    group.finish();
}

/// MLP-layer shapes (DLRM top/bottom nets): batch x out x in with the
/// weight matrix read transposed in place — the product every MLP forward
/// band runs per layer (`Linear::forward_rows`).
fn bench_mlp_shapes(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let mut group = c.benchmark_group("gemm_mlp");
    for &(b, o, i) in &[(128usize, 512usize, 256usize), (512, 256, 64), (2048, 64, 16)] {
        let x = rand_vec(b * i, &mut rng);
        let w = rand_vec(o * i, &mut rng);
        let mut y = vec![0.0f32; b * o];
        let label = format!("{b}x{o}x{i}");
        group.throughput(Throughput::Elements((2 * b * o * i) as u64));
        group.bench_with_input(BenchmarkId::new("xwt", &label), &b, |bch, _| {
            bch.iter(|| gemm(b, o, i, 1.0, &x, Trans::No, &w, Trans::Yes, 0.0, &mut y));
        });
    }
    group.finish();
}

/// TT chain levels as batched launches. Rows count tasks (`throughput_per_iter`
/// = tasks), so `median_ns / throughput_per_iter` is the per-task time, and
/// each id names the kernel that ran: the small-shape `table` or `generic`.
fn bench_batched_gemm(c: &mut Criterion) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let mut group = c.benchmark_group("gemm_batched");
    // (m, n, k): the two forward levels of an order-3, dim-32 table at
    // rank 16 — on the table — and an n = 4, R = 32 slice that is not.
    for &(m, n, k) in &[(2usize, 64usize, 16usize), (8, 4, 16), (4, 128, 32)] {
        let kernel =
            if small::resolve(Op::GemmNn, [m, n, k]).is_some() { "table" } else { "generic" };
        for &count in &[512usize, 4096] {
            let a_arena = rand_vec(m * k * count, &mut rng);
            let b_arena = rand_vec(k * n * count, &mut rng);
            let mut c_arena = vec![0.0f32; m * n * count];
            let mut batch = GemmBatch::new(m, n, k);
            for i in 0..count {
                batch.push(i * m * k, i * k * n, i * m * n);
            }
            group.throughput(Throughput::Elements(count as u64));
            let shape = format!("{m}x{n}x{k}/{kernel}");
            group.bench_with_input(
                BenchmarkId::new(&format!("parallel/{shape}"), count),
                &count,
                |bch, _| bch.iter(|| batched_gemm(&batch, &a_arena, &b_arena, &mut c_arena)),
            );
            group.bench_with_input(
                BenchmarkId::new(&format!("sequential/{shape}"), count),
                &count,
                |bch, _| bch.iter(|| batched_gemm_seq(&batch, &a_arena, &b_arena, &mut c_arena)),
            );
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).provenance(el_bench::provenance_fields());
    targets = bench_single_gemm, bench_packed_vs_axpy, bench_kernel_sweep, bench_mlp_shapes,
        bench_batched_gemm
}
criterion_main!(benches);
