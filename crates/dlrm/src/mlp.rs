//! Multi-layer perceptron with ReLU activations.
//!
//! DLRM's bottom MLP maps dense features to the embedding dimension; the
//! top MLP maps the interaction output to the click logit. Activation
//! caches are kept inside the struct (one training step at a time, like the
//! rest of the trainer), so callers just pair `forward` and `backward`.
//!
//! Each direction is one fork over batch bands. Forward, a band carries its
//! rows through every layer (`x·Wᵀ`, bias, ReLU); backward, through the
//! whole `dy·W` + ReLU-mask chain. `W` is read in place by every band, and
//! the weight gradients stay whole-batch reductions after the fork. Every
//! GEMM computes an element of its output from that element's row and
//! column alone, so a band edge decides which thread computes a row, never
//! how — as long as the band's product runs the kernel the whole batch's
//! would, which the band rule guarantees.

use crate::band::{fit, fork_bands};
use crate::linear::Linear;
use el_tensor::gemm::TRANS_PACK_CUTOFF;
use el_tensor::micro::{MR, PACK_CUTOFF};
use el_tensor::Matrix;
use rand::Rng;

/// A ReLU MLP; the final layer is linear (no activation), producing either
/// features (bottom) or logits (top).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Mlp {
    /// Layers, applied in order.
    pub layers: Vec<Linear>,
    /// Every layer's input from the latest forward: `inputs[0]` is the
    /// MLP's own input, `inputs[l]` the ReLU'd output of layer `l - 1`.
    /// Each step overwrites the previous step's buffers.
    #[serde(skip)]
    inputs: Vec<Matrix>,
    /// `grads[l]`: the latest backward's gradient with respect to the
    /// input of layer `l + 1`, likewise reused from step to step.
    #[serde(skip)]
    grads: Vec<Matrix>,
}

/// Rows per band of one MLP direction's fork over `batch` rows on a pool
/// of `threads`; `batch` means one band and no fork.
///
/// The aim is two bands per thread, each a whole number of [`MR`] rows
/// (the packed kernel's row tile); a one-thread pool gets one band, where a
/// split would only repack `W`. A band runs one product per layer of
/// `layers`, `rows × weight size` multiply-adds, and its GEMM picks its
/// kernel by whether that reaches `cutoff`. The kernels on either side of
/// a cutoff round differently, so a split is kept only if every band — the
/// short last one included — lands on the whole batch's side for every
/// layer; failing that, the band count halves, down to one.
fn band_rows(batch: usize, layers: &[Linear], cutoff: usize, threads: usize) -> usize {
    let mut bands = if threads > 1 { 2 * threads } else { 1 };
    while bands > 1 {
        let rows = batch.div_ceil(bands).next_multiple_of(MR);
        if rows < batch {
            let short = batch - (batch - 1) / rows * rows;
            let side = |rows: usize, w: usize| rows * w >= cutoff;
            if layers.iter().all(|l| side(short, l.weight.len()) == side(batch, l.weight.len())) {
                return rows;
            }
        }
        bands /= 2;
    }
    batch
}

/// Runs `layers` on `x` as one fork: the ReLU'd output of every layer but
/// the last goes to `hidden` (one buffer per hidden layer, reshaped in
/// place), the last layer's output to `y`.
fn forward_fork(
    layers: &[Linear],
    x: &Matrix,
    hidden: &mut [Matrix],
    y: &mut Matrix,
    threads: usize,
) {
    assert_eq!(hidden.len() + 1, layers.len(), "one buffer per hidden layer");
    assert_eq!(x.cols(), layers[0].in_dim(), "input dim mismatch");
    let batch = x.rows();
    for (out, layer) in hidden.iter_mut().chain([&mut *y]).zip(layers) {
        fit(out, batch, layer.out_dim());
    }
    let rows = band_rows(batch, layers, TRANS_PACK_CUTOFF, threads);
    fork_bands(hidden.iter_mut().chain([y]), rows, |r0, outs| forward_band(layers, x, r0, outs));
}

/// One band of the forward: `x`'s rows from `r0` on through every layer,
/// `outs[l]` receiving the band's rows of layer `l`'s output.
// CONTRACT: zero-alloc
// CONTRACT: non-blocking
fn forward_band(layers: &[Linear], x: &Matrix, r0: usize, outs: &mut [&mut [f32]]) {
    let last = layers.len() - 1;
    let (i0, rows) = (x.cols(), outs[0].len() / layers[0].out_dim());
    let x = &x.as_slice()[r0 * i0..(r0 + rows) * i0];
    for (l, layer) in layers.iter().enumerate() {
        let (done, rest) = outs.split_at_mut(l);
        let y = &mut *rest[0];
        layer.forward_rows(done.last().map_or(x, |h| &**h), y);
        if l < last {
            // A select, not a branch: it vectorizes, and keeps -0.0 and NaN
            // exactly as `if *v < 0.0 { *v = 0.0 }` does.
            for v in y.iter_mut() {
                *v = if *v < 0.0 { 0.0 } else { *v };
            }
        }
    }
}

/// One band of the backward: from `dy`'s rows at `r0` on, `d_in[k]`
/// receives the band's rows of the gradient with respect to the input of
/// layer `first + k`, where `first = layers.len() - d_in.len()`. A hidden
/// layer's input is the previous layer's ReLU'd output, so its gradient
/// passes that ReLU's mask.
// CONTRACT: zero-alloc
// CONTRACT: non-blocking
fn backward_band(
    layers: &[Linear],
    inputs: &[Matrix],
    dy: &Matrix,
    r0: usize,
    d_in: &mut [&mut [f32]],
) {
    let first = layers.len() - d_in.len();
    let (od, rows) = (dy.cols(), d_in[0].len() / layers[first].in_dim());
    let dy = &dy.as_slice()[r0 * od..(r0 + rows) * od];
    for l in (first..layers.len()).rev() {
        let (lo, hi) = d_in.split_at_mut(l - first + 1);
        let dst = &mut *lo[l - first];
        layers[l].input_grad_rows(hi.first().map_or(dy, |g| &**g), dst);
        if l > 0 {
            let a = &inputs[l].as_slice()[r0 * inputs[l].cols()..][..dst.len()];
            for (g, &a) in dst.iter_mut().zip(a) {
                *g = if a <= 0.0 { 0.0 } else { *g };
            }
        }
    }
}

impl Mlp {
    /// Builds an MLP with the given layer sizes, e.g. `[13, 512, 64]`.
    pub fn new(sizes: &[usize], rng: &mut impl Rng) -> Self {
        assert!(sizes.len() >= 2, "an MLP needs at least one layer");
        let layers = sizes.windows(2).map(|w| Linear::new(w[0], w[1], rng)).collect::<Vec<_>>();
        Self { layers, inputs: Vec::new(), grads: Vec::new() }
    }

    /// Input feature count.
    pub fn in_dim(&self) -> usize {
        self.layers.first().unwrap().in_dim() // PANIC-OK: constructor guarantees >= 1 layer
    }

    /// Output feature count.
    pub fn out_dim(&self) -> usize {
        self.layers.last().unwrap().out_dim() // PANIC-OK: constructor guarantees >= 1 layer
    }

    /// Forward pass, caching activations for backward (a copy of `x` is
    /// the layer-0 cache).
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        let mut input = self.take_input();
        fit(&mut input, x.rows(), x.cols());
        input.as_mut_slice().copy_from_slice(x.as_slice());
        let mut y = Matrix::default();
        self.forward_owned(input, &mut y);
        y
    }

    /// [`Mlp::forward`] taking `x` by value as its layer-0 cache, with the
    /// output written to `y` (reshaped, its allocation reused). The input
    /// comes back through [`Mlp::take_input`] once backward is done.
    pub fn forward_owned(&mut self, x: Matrix, y: &mut Matrix) {
        self.forward_on(x, y, rayon::current_num_threads());
    }

    fn forward_on(&mut self, x: Matrix, y: &mut Matrix, threads: usize) {
        self.inputs.resize_with(self.layers.len(), Matrix::default);
        self.inputs[0] = x;
        let (x, hidden) = self.inputs.split_at_mut(1);
        forward_fork(&self.layers, &x[0], hidden, y, threads);
    }

    /// Hands back the input the latest forward cached, leaving the MLP
    /// without one until the next forward.
    pub fn take_input(&mut self) -> Matrix {
        self.inputs.first_mut().map(std::mem::take).unwrap_or_default()
    }

    /// Inference-only forward (no caches touched).
    pub fn predict(&self, x: &Matrix) -> Matrix {
        let mut hidden = vec![Matrix::default(); self.layers.len() - 1];
        let mut y = Matrix::default();
        forward_fork(&self.layers, x, &mut hidden, &mut y, rayon::current_num_threads());
        y
    }

    /// Backward pass; accumulates layer gradients and returns `dx`.
    ///
    /// # Panics
    /// Panics when called without a preceding [`Mlp::forward`].
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        let mut dx = Matrix::default();
        self.backward_into(dy, Some(&mut dx));
        dx
    }

    /// [`Mlp::backward`] writing `dx` into `dx` (reshaped, its allocation
    /// reused), or computing no `dx` at all when `dx` is `None`.
    ///
    /// # Panics
    /// Panics when called without a preceding forward on a batch of
    /// `dy.rows()`.
    pub fn backward_into(&mut self, dy: &Matrix, dx: Option<&mut Matrix>) {
        self.backward_on(dy, dx, rayon::current_num_threads());
    }

    fn backward_on(&mut self, dy: &Matrix, mut dx: Option<&mut Matrix>, threads: usize) {
        let (batch, last) = (dy.rows(), self.layers.len() - 1);
        assert!(
            self.inputs.len() == self.layers.len() && self.inputs[0].rows() == batch,
            "backward requires a cached forward"
        );
        assert_eq!(dy.cols(), self.out_dim(), "output dim mismatch");
        self.grads.resize_with(last, Matrix::default);
        for (g, layer) in self.grads.iter_mut().zip(&self.layers) {
            fit(g, batch, layer.out_dim());
        }
        let first = usize::from(dx.is_none());
        if let Some(dx) = dx.as_deref_mut() {
            fit(dx, batch, self.in_dim());
        }
        let rows = band_rows(batch, &self.layers[first..], PACK_CUTOFF, threads);
        let (layers, inputs) = (&self.layers, &self.inputs);
        fork_bands(dx.into_iter().chain(&mut self.grads), rows, |r0, d_in| {
            backward_band(layers, inputs, dy, r0, d_in)
        });
        for (l, layer) in self.layers.iter_mut().enumerate() {
            layer.accumulate_grads(&self.inputs[l], if l == last { dy } else { &self.grads[l] });
        }
    }

    /// SGD step on every layer.
    pub fn step(&mut self, lr: f32) {
        for layer in &mut self.layers {
            layer.step(lr);
        }
    }

    /// Adagrad step on every layer (one state per layer).
    pub fn step_adagrad(&mut self, lr: f32, states: &mut [crate::optim::Adagrad]) {
        assert_eq!(states.len(), self.layers.len(), "one adagrad state per layer");
        for (layer, state) in self.layers.iter_mut().zip(states) {
            layer.step_adagrad(lr, state);
        }
    }

    /// Fresh Adagrad states sized for this MLP's layers.
    pub fn adagrad_states(&self) -> Vec<crate::optim::Adagrad> {
        self.layers.iter().map(|l| crate::optim::Adagrad::new(l.param_count())).collect()
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Linear::param_count).sum()
    }

    /// Serializes all parameters (to copy one MLP's weights into another).
    pub fn export_params(&self) -> Vec<f32> {
        let mut buf = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            layer.export_params(&mut buf);
        }
        buf
    }

    /// Restores all parameters.
    pub fn import_params(&mut self, data: &[f32]) {
        let mut off = 0;
        for layer in &mut self.layers {
            off += layer.import_params(&data[off..]);
        }
        assert_eq!(off, data.len(), "parameter buffer length mismatch");
    }
}

/// Today's whole-batch per-layer calls, kept as the bit oracle of the band
/// forks: forward, `gemm` with `Wᵀ` and the bias row by row; backward, per
/// layer `add_at_b` for `dW`, the bias gradient in row order and `gemm_nn`
/// for `dx`. Returns the output, `dx` and every layer's `(dW, db)`.
#[cfg(test)]
fn reference(
    layers: &[Linear],
    x: &Matrix,
    dy: &Matrix,
) -> (Matrix, Matrix, Vec<(Matrix, Vec<f32>)>) {
    use el_tensor::gemm::{add_at_b, gemm, gemm_nn, Trans};
    let b = x.rows();
    let mut acts = vec![x.clone()];
    for (l, layer) in layers.iter().enumerate() {
        let (o, i) = (layer.out_dim(), layer.in_dim());
        let (w, mut y) = (layer.weight.as_slice(), Matrix::zeros(b, o));
        gemm(b, o, i, 1.0, acts[l].as_slice(), Trans::No, w, Trans::Yes, 0.0, y.as_mut_slice());
        for r in 0..b {
            for (v, bv) in y.row_mut(r).iter_mut().zip(&layer.bias) {
                *v += bv;
            }
        }
        if l + 1 < layers.len() {
            for v in y.as_mut_slice() {
                *v = if *v < 0.0 { 0.0 } else { *v };
            }
        }
        acts.push(y);
    }
    let y = acts.pop().unwrap_or_default();
    let (mut g, mut grads) = (dy.clone(), Vec::new());
    for (l, layer) in layers.iter().enumerate().rev() {
        let (o, i) = (layer.out_dim(), layer.in_dim());
        let mut dw = Matrix::zeros(o, i);
        add_at_b(b, o, i, g.as_slice(), acts[l].as_slice(), dw.as_mut_slice());
        let mut db = vec![0.0; o];
        for r in 0..b {
            for (s, v) in db.iter_mut().zip(g.row(r)) {
                *s += v;
            }
        }
        let mut dx = Matrix::zeros(b, i);
        gemm_nn(b, i, o, 1.0, g.as_slice(), layer.weight.as_slice(), 0.0, dx.as_mut_slice());
        if l > 0 {
            for (d, &a) in dx.as_mut_slice().iter_mut().zip(acts[l].as_slice()) {
                *d = if a <= 0.0 { 0.0 } else { *d };
            }
        }
        grads.push((dw, db));
        g = dx;
    }
    grads.reverse();
    (y, g, grads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    const BATCHES: [usize; 9] = [1, 7, 66, 127, 128, 255, 256, 1024, 2048];

    /// The workloads' bottom and top MLPs, then random small ones.
    fn oracle_shapes(rng: &mut impl Rng) -> Vec<Vec<usize>> {
        let mut shapes = vec![vec![13, 64, 32, 32], vec![383, 64, 32, 1]];
        for _ in 0..4 {
            let depth = rng.gen_range(1..=4);
            shapes.push((0..=depth).map(|_| rng.gen_range(1..=40)).collect());
        }
        shapes
    }

    /// Bit equality, reporting the first element that differs.
    fn assert_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        if let Some(i) = (0..got.len()).find(|&i| got[i].to_bits() != want[i].to_bits()) {
            panic!("{what}: element {i} is {:?}, the reference {:?}", got[i], want[i]);
        }
    }

    #[test]
    fn band_forks_equal_the_whole_batch_layer_calls_bit_for_bit() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for sizes in oracle_shapes(&mut rng) {
            let mut mlp = Mlp::new(&sizes, &mut rng);
            for batch in BATCHES {
                let x = Matrix::uniform(batch, sizes[0], 1.0, &mut rng);
                let mut dy = Matrix::uniform(batch, mlp.out_dim(), 1.0, &mut rng);
                for (k, v) in dy.as_mut_slice().iter_mut().enumerate() {
                    match k % 29 {
                        0 => *v = 0.0,
                        1 => *v = -0.0,
                        2 if k % 5 == 0 => *v = f32::NAN,
                        _ => {}
                    }
                }
                let (want_y, want_dx, want_grads) = reference(&mlp.layers, &x, &dy);
                let check_grads = |mlp: &Mlp, what: &str| {
                    for (l, (layer, (dw, db))) in mlp.layers.iter().zip(&want_grads).enumerate() {
                        assert_bits(
                            layer.grad_weight.as_slice(),
                            dw.as_slice(),
                            &format!("{what}: dW{l}"),
                        );
                        assert_bits(&layer.grad_bias, db, &format!("{what}: db{l}"));
                    }
                };
                // Pool sizes that cut the same bands compute the same thing.
                let mut splits = Vec::new();
                for threads in 1..=8 {
                    let split = [
                        band_rows(batch, &mlp.layers, TRANS_PACK_CUTOFF, threads),
                        band_rows(batch, &mlp.layers, PACK_CUTOFF, threads),
                        band_rows(batch, &mlp.layers[1..], PACK_CUTOFF, threads),
                    ];
                    if splits.contains(&split) {
                        continue;
                    }
                    splits.push(split);
                    let what = format!("{sizes:?} at batch {batch}, {threads} threads");
                    let (mut y, mut dx) = (Matrix::default(), Matrix::default());
                    mlp.forward_on(x.clone(), &mut y, threads);
                    assert_bits(y.as_slice(), want_y.as_slice(), &format!("{what}: y"));
                    mlp.backward_on(&dy, Some(&mut dx), threads);
                    assert_bits(dx.as_slice(), want_dx.as_slice(), &format!("{what}: dx"));
                    check_grads(&mlp, &what);
                    mlp.layers.iter_mut().for_each(Linear::zero_grad);
                    // The bottom MLP's backward: no layer-0 `dx`.
                    mlp.backward_on(&dy, None, threads);
                    check_grads(&mlp, &format!("{what}, no dx"));
                    mlp.layers.iter_mut().for_each(Linear::zero_grad);
                }
            }
        }
    }

    #[test]
    fn every_band_runs_the_whole_batch_kernel() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let mut batches: Vec<usize> = (0..=300).collect();
        batches.extend(BATCHES);
        for sizes in oracle_shapes(&mut rng) {
            let mlp = Mlp::new(&sizes, &mut rng);
            for layers in [&mlp.layers[..], &mlp.layers[1..]] {
                for cutoff in [TRANS_PACK_CUTOFF, PACK_CUTOFF] {
                    for &batch in &batches {
                        for threads in 1..=8 {
                            let rows = band_rows(batch, layers, cutoff, threads);
                            if rows == batch {
                                continue;
                            }
                            assert!(threads > 1 && rows.is_multiple_of(MR) && rows < batch);
                            assert!(batch.div_ceil(rows) <= 2 * threads);
                            for r0 in (0..batch).step_by(rows) {
                                let band = rows.min(batch - r0);
                                for l in layers {
                                    let w = l.weight.len();
                                    assert_eq!(
                                        band * w >= cutoff,
                                        batch * w >= cutoff,
                                        "{sizes:?}, batch {batch}, {threads} threads, band {band}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        // The workloads' batch of 2048 on two threads: each of the four MLP
        // directions is one fork of four bands.
        let bottom = Mlp::new(&[13, 64, 32, 32], &mut rng);
        let top = Mlp::new(&[383, 64, 32, 1], &mut rng);
        for (layers, cutoff) in [
            (&bottom.layers[..], TRANS_PACK_CUTOFF),
            (&bottom.layers[1..], PACK_CUTOFF),
            (&top.layers[..], TRANS_PACK_CUTOFF),
            (&top.layers[..], PACK_CUTOFF),
        ] {
            assert_eq!(band_rows(2048, layers, cutoff, 2), 516);
        }
    }

    #[test]
    fn shapes_flow_through() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut mlp = Mlp::new(&[13, 32, 8], &mut rng);
        let x = Matrix::uniform(4, 13, 1.0, &mut rng);
        let y = mlp.forward(&x);
        assert_eq!((y.rows(), y.cols()), (4, 8));
        let dx = mlp.backward(&y);
        assert_eq!((dx.rows(), dx.cols()), (4, 13));
    }

    #[test]
    fn predict_equals_forward() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut mlp = Mlp::new(&[5, 9, 3], &mut rng);
        let x = Matrix::uniform(6, 5, 1.0, &mut rng);
        let a = mlp.forward(&x);
        let b = mlp.predict(&x);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn reused_buffers_train_like_a_fresh_mlp_across_batch_sizes() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Wide enough that the 2048-sample weight gradients are banded.
        let sizes = [13, 256, 64, 4];
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut mlp = Mlp::new(&sizes, &mut rng);
        for batch in [2048, 7, 2048] {
            let x = Matrix::uniform(batch, 13, 1.0, &mut rng);
            let dy = Matrix::uniform(batch, 4, 1.0, &mut rng);
            let mut fresh = Mlp::new(&sizes, &mut rng);
            fresh.import_params(&mlp.export_params());
            assert_eq!(bits(&mlp.forward(&x)), bits(&fresh.forward(&x)), "batch {batch}: y");
            assert_eq!(bits(&mlp.backward(&dy)), bits(&fresh.backward(&dy)), "batch {batch}: dx");
            for (l, f) in mlp.layers.iter().zip(&fresh.layers) {
                assert_eq!(bits(&l.grad_weight), bits(&f.grad_weight), "batch {batch}: dW");
                let bias = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bias(&l.grad_bias), bias(&f.grad_bias), "batch {batch}: db");
            }
            mlp.step(0.1);
        }
    }

    #[test]
    fn relu_masks_negative_activations_in_backward() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut mlp = Mlp::new(&[2, 2, 1], &mut rng);
        // force one hidden unit to be strictly negative pre-ReLU
        mlp.layers[0].weight = Matrix::from_vec(2, 2, vec![1.0, 0.0, -1.0, 0.0]);
        mlp.layers[0].bias = vec![0.0, 0.0];
        let x = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
        let y = mlp.forward(&x);
        let dy = Matrix::full(1, 1, 1.0);
        let _ = mlp.backward(&dy);
        // hidden unit 1 was clamped to 0 by ReLU, so its weight rows get no
        // gradient
        assert_eq!(mlp.layers[0].grad_weight.get(1, 0), 0.0);
        assert!(mlp.layers[0].grad_weight.get(0, 0).abs() > 0.0 || y.get(0, 0) == 0.0);
    }

    #[test]
    fn end_to_end_gradient_check() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut mlp = Mlp::new(&[3, 6, 2], &mut rng);
        let x = Matrix::uniform(2, 3, 1.0, &mut rng);
        let g = Matrix::uniform(2, 2, 1.0, &mut rng);

        let _ = mlp.forward(&x);
        let dx = mlp.backward(&g);

        let loss = |mlp: &Mlp, x: &Matrix| -> f32 {
            mlp.predict(x).as_slice().iter().zip(g.as_slice()).map(|(y, gv)| y * gv).sum()
        };
        let eps = 1e-3;
        let mut x2 = x.clone();
        for &(b, i) in &[(0usize, 0usize), (1, 2)] {
            let orig = x2.get(b, i);
            x2.set(b, i, orig + eps);
            let up = loss(&mlp, &x2);
            x2.set(b, i, orig - eps);
            let down = loss(&mlp, &x2);
            x2.set(b, i, orig);
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - dx.get(b, i)).abs() < 2e-2,
                "dx({b},{i}): {numeric} vs {}",
                dx.get(b, i)
            );
        }
    }

    #[test]
    fn params_round_trip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let a = Mlp::new(&[4, 8, 2], &mut rng);
        let mut b = Mlp::new(&[4, 8, 2], &mut rng);
        b.import_params(&a.export_params());
        let x = Matrix::uniform(3, 4, 1.0, &mut rng);
        assert_eq!(a.predict(&x).as_slice(), b.predict(&x).as_slice());
    }

    #[test]
    fn mlp_learns_xor_like_pattern() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut mlp = Mlp::new(&[2, 32, 1], &mut rng);
        let x = Matrix::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let t = [0.0f32, 1.0, 1.0, 0.0];
        let mut last = f32::MAX;
        for _ in 0..3000 {
            let y = mlp.forward(&x);
            let mut d = Matrix::zeros(4, 1);
            let mut loss = 0.0;
            for (i, target) in t.iter().enumerate() {
                let e = y.get(i, 0) - target;
                loss += 0.5 * e * e;
                d.set(i, 0, e / 4.0);
            }
            last = loss;
            let _ = mlp.backward(&d);
            mlp.step(0.1);
        }
        assert!(last < 0.05, "XOR loss stuck at {last}");
    }
}
