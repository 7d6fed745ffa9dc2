//! Fully-connected layer with explicit-cache backward.

use el_tensor::gemm::{par_add_at_b, par_gemm, par_gemm_bt};
use el_tensor::Matrix;
use rand::Rng;

/// A dense layer `y = x W^T + b` with `W: out x in` (PyTorch convention).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Linear {
    /// Weights, `out x in`.
    pub weight: Matrix,
    /// Bias, length `out`.
    pub bias: Vec<f32>,
    /// Accumulated weight gradient.
    pub grad_weight: Matrix,
    /// Accumulated bias gradient.
    pub grad_bias: Vec<f32>,
}

impl Linear {
    /// He-uniform initialization (suits the ReLU MLPs of DLRM).
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        let bound = (6.0 / in_dim as f32).sqrt();
        Self {
            weight: Matrix::uniform(out_dim, in_dim, bound, rng),
            bias: vec![0.0; out_dim],
            grad_weight: Matrix::zeros(out_dim, in_dim),
            grad_bias: vec![0.0; out_dim],
        }
    }

    /// Input feature count.
    pub fn in_dim(&self) -> usize {
        self.weight.cols()
    }

    /// Output feature count.
    pub fn out_dim(&self) -> usize {
        self.weight.rows()
    }

    /// `y = x W^T + b` for a batch `x: batch x in`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = Matrix::zeros(0, 0);
        self.forward_into(x, &mut y);
        y
    }

    /// [`Linear::forward`] into `y`, reshaped to `batch x out` and reusing
    /// its allocation.
    pub fn forward_into(&self, x: &Matrix, y: &mut Matrix) {
        assert_eq!(x.cols(), self.in_dim(), "input dim mismatch");
        let (b, o, i) = (x.rows(), self.out_dim(), self.in_dim());
        y.reset_zeroed(b, o);
        // y = x (b x i) * W^T (i x o): batch rows band out across the
        // pool while the packed kernel absorbs the transpose into its
        // B-panel packing, so W is read in place by every band.
        par_gemm_bt(b, o, i, 1.0, x.as_slice(), self.weight.as_slice(), 0.0, y.as_mut_slice());
        let bias = &self.bias;
        for row in 0..b {
            let dst = &mut y.as_mut_slice()[row * o..(row + 1) * o];
            for (v, bv) in dst.iter_mut().zip(bias) {
                *v += bv;
            }
        }
    }

    /// Backward: accumulates `dW += dy^T x`, `db += sum(dy)` and returns
    /// `dx = dy W`.
    pub fn backward(&mut self, x: &Matrix, dy: &Matrix) -> Matrix {
        let mut dx = Matrix::zeros(0, 0);
        self.backward_into(x, dy, &mut dx);
        dx
    }

    /// [`Linear::backward`] writing `dx` into `dx`, reshaped to
    /// `batch x in` and reusing its allocation.
    pub fn backward_into(&mut self, x: &Matrix, dy: &Matrix, dx: &mut Matrix) {
        assert_eq!(dy.cols(), self.out_dim());
        assert_eq!(dy.rows(), x.rows());
        let (b, o, i) = (x.rows(), self.out_dim(), self.in_dim());
        // dW (o x i) += dy^T (o x b) * x (b x i)
        par_add_at_b(b, o, i, dy.as_slice(), x.as_slice(), self.grad_weight.as_mut_slice());
        for row in 0..b {
            for (g, v) in self.grad_bias.iter_mut().zip(dy.row(row)) {
                *g += v;
            }
        }
        // dx (b x i) = dy (b x o) * W (o x i)
        dx.reset_zeroed(b, i);
        par_gemm(b, i, o, 1.0, dy.as_slice(), self.weight.as_slice(), 0.0, dx.as_mut_slice());
    }

    /// SGD step and gradient reset.
    pub fn step(&mut self, lr: f32) {
        self.weight.axpy(-lr, &self.grad_weight);
        for (b, g) in self.bias.iter_mut().zip(&self.grad_bias) {
            *b -= lr * g;
        }
        self.zero_grad();
    }

    /// Adagrad step over [weights, bias] and gradient reset. The state
    /// must have been created with `Adagrad::new(self.param_count())`.
    pub fn step_adagrad(&mut self, lr: f32, state: &mut crate::optim::Adagrad) {
        let w = self.weight.len();
        assert_eq!(state.accum.len(), self.param_count(), "adagrad state size mismatch");
        let eps = state.eps;
        let (acc_w, acc_b) = state.accum.split_at_mut(w);
        for ((wv, g), a) in
            self.weight.as_mut_slice().iter_mut().zip(self.grad_weight.as_slice()).zip(acc_w)
        {
            *a += g * g;
            *wv -= lr * g / (a.sqrt() + eps);
        }
        for ((bv, g), a) in self.bias.iter_mut().zip(&self.grad_bias).zip(acc_b) {
            *a += g * g;
            *bv -= lr * g / (a.sqrt() + eps);
        }
        self.zero_grad();
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_weight.fill_zero();
        self.grad_bias.fill(0.0);
    }

    /// Parameter count.
    pub fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// Serializes parameters into a flat buffer.
    pub fn export_params(&self, out: &mut Vec<f32>) {
        out.extend_from_slice(self.weight.as_slice());
        out.extend_from_slice(&self.bias);
    }

    /// Restores parameters from a flat buffer, returning the consumed
    /// length.
    pub fn import_params(&mut self, data: &[f32]) -> usize {
        let w = self.weight.len();
        let b = self.bias.len();
        self.weight.as_mut_slice().copy_from_slice(&data[..w]);
        self.bias.copy_from_slice(&data[w..w + b]);
        w + b
    }
}

/// Ensures a reference GEMM-free forward for tests.
#[cfg(test)]
fn forward_reference(layer: &Linear, x: &Matrix) -> Matrix {
    let mut y = Matrix::zeros(x.rows(), layer.out_dim());
    for b in 0..x.rows() {
        for o in 0..layer.out_dim() {
            let mut acc = layer.bias[o];
            for i in 0..layer.in_dim() {
                acc += x.get(b, i) * layer.weight.get(o, i);
            }
            y.set(b, o, acc);
        }
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_reference() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let layer = Linear::new(7, 5, &mut rng);
        let x = Matrix::uniform(3, 7, 1.0, &mut rng);
        let y = layer.forward(&x);
        assert!(y.max_abs_diff(&forward_reference(&layer, &x)) < 1e-5);
    }

    #[test]
    fn gradient_check() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut layer = Linear::new(4, 3, &mut rng);
        let x = Matrix::uniform(2, 4, 1.0, &mut rng);
        let gweight = Matrix::uniform(2, 3, 1.0, &mut rng); // dL/dy

        let dx = layer.backward(&x, &gweight);
        let analytic_dw = layer.grad_weight.clone();

        let eps = 1e-3;
        // weight gradient
        for &(o, i) in &[(0usize, 0usize), (2, 3), (1, 2)] {
            let orig = layer.weight.get(o, i);
            layer.weight.set(o, i, orig + eps);
            let up: f32 = layer
                .forward(&x)
                .as_slice()
                .iter()
                .zip(gweight.as_slice())
                .map(|(y, g)| y * g)
                .sum();
            layer.weight.set(o, i, orig - eps);
            let down: f32 = layer
                .forward(&x)
                .as_slice()
                .iter()
                .zip(gweight.as_slice())
                .map(|(y, g)| y * g)
                .sum();
            layer.weight.set(o, i, orig);
            let numeric = (up - down) / (2.0 * eps);
            assert!(
                (numeric - analytic_dw.get(o, i)).abs() < 1e-2,
                "dW({o},{i}): {numeric} vs {}",
                analytic_dw.get(o, i)
            );
        }
        // input gradient
        let mut x2 = x.clone();
        let (b, i) = (0, 1);
        let orig = x2.get(b, i);
        x2.set(b, i, orig + eps);
        let up: f32 =
            layer.forward(&x2).as_slice().iter().zip(gweight.as_slice()).map(|(y, g)| y * g).sum();
        x2.set(b, i, orig - eps);
        let down: f32 =
            layer.forward(&x2).as_slice().iter().zip(gweight.as_slice()).map(|(y, g)| y * g).sum();
        let numeric = (up - down) / (2.0 * eps);
        assert!((numeric - dx.get(b, i)).abs() < 1e-2);
    }

    #[test]
    fn step_applies_sgd_and_clears() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut layer = Linear::new(2, 2, &mut rng);
        let w0 = layer.weight.clone();
        layer.grad_weight = Matrix::full(2, 2, 1.0);
        layer.grad_bias = vec![2.0, 2.0];
        layer.step(0.5);
        let mut expected = w0;
        expected.axpy(-0.5, &Matrix::full(2, 2, 1.0));
        assert!(layer.weight.max_abs_diff(&expected) < 1e-6);
        assert_eq!(layer.bias, vec![-1.0, -1.0]);
        assert!(layer.grad_weight.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn export_import_round_trip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let a = Linear::new(3, 2, &mut rng);
        let mut b = Linear::new(3, 2, &mut rng);
        let mut buf = Vec::new();
        a.export_params(&mut buf);
        let consumed = b.import_params(&buf);
        assert_eq!(consumed, a.param_count());
        assert!(a.weight.max_abs_diff(&b.weight) == 0.0);
        assert_eq!(a.bias, b.bias);
    }

    #[test]
    #[should_panic(expected = "input dim mismatch")]
    fn shape_mismatch_panics() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let layer = Linear::new(4, 2, &mut rng);
        let _ = layer.forward(&Matrix::zeros(1, 3));
    }
}
