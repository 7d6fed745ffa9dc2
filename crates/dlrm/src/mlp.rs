//! Multi-layer perceptron with ReLU activations.
//!
//! DLRM's bottom MLP maps dense features to the embedding dimension; the
//! top MLP maps the interaction output to the click logit. Activation
//! caches are kept inside the struct (one training step at a time, like the
//! rest of the trainer), so callers just pair `forward` and `backward`.

use crate::linear::Linear;
use el_tensor::Matrix;
use rand::Rng;

/// A ReLU MLP; the final layer is linear (no activation), producing either
/// features (bottom) or logits (top).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Mlp {
    /// Layers, applied in order.
    pub layers: Vec<Linear>,
    /// Per-layer input caches from the latest forward; each step overwrites
    /// the previous step's buffers.
    #[serde(skip)]
    inputs: Vec<Matrix>,
    /// The two gradient buffers `backward` alternates between, likewise
    /// reused from step to step.
    #[serde(skip)]
    grads: Vec<Matrix>,
}

/// Runs `layers` on `x`, writing the ReLU'd output of every layer but the
/// last into `hidden` (one buffer per hidden layer, reshaped in place), and
/// returns the last layer's output.
fn layer_loop(layers: &[Linear], x: &Matrix, hidden: &mut [Matrix]) -> Matrix {
    assert_eq!(hidden.len() + 1, layers.len(), "one buffer per hidden layer");
    for (li, layer) in layers[..hidden.len()].iter().enumerate() {
        let (done, rest) = hidden.split_at_mut(li);
        let y = &mut rest[0];
        layer.forward_into(done.last().unwrap_or(x), y);
        // A select, not a branch: it vectorizes, and keeps -0.0 and NaN
        // exactly as `if *v < 0.0 { *v = 0.0 }` does.
        for v in y.as_mut_slice() {
            *v = if *v < 0.0 { 0.0 } else { *v };
        }
    }
    layers[hidden.len()].forward(hidden.last().unwrap_or(x))
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

    /// Forward pass, caching activations for backward.
    pub fn forward(&mut self, x: &Matrix) -> Matrix {
        self.inputs.resize_with(self.layers.len(), || Matrix::zeros(0, 0));
        let (x_cache, hidden) = self.inputs.split_at_mut(1);
        x_cache[0].reset_zeroed(x.rows(), x.cols());
        x_cache[0].as_mut_slice().copy_from_slice(x.as_slice());
        layer_loop(&self.layers, x, hidden)
    }

    /// Inference-only forward (no caches touched).
    pub fn predict(&self, x: &Matrix) -> Matrix {
        let mut hidden = vec![Matrix::zeros(0, 0); self.layers.len() - 1];
        layer_loop(&self.layers, x, &mut hidden)
    }

    /// Backward pass; accumulates layer gradients and returns `dx`.
    ///
    /// # Panics
    /// Panics when called without a preceding [`Mlp::forward`].
    pub fn backward(&mut self, dy: &Matrix) -> Matrix {
        assert_eq!(self.inputs.len(), self.layers.len(), "backward requires a cached forward");
        self.grads.resize_with(2, || Matrix::zeros(0, 0));
        let (grad, spare) = self.grads.split_at_mut(1);
        let (grad, spare) = (&mut grad[0], &mut spare[0]);
        let last = self.layers.len() - 1;
        for li in (1..=last).rev() {
            let dy_li = if li == last { dy } else { &*grad };
            self.layers[li].backward_into(&self.inputs[li], dy_li, spare);
            // dx flows back through the ReLU applied to the previous layer's
            // output; this layer's cached *input* is exactly that activation.
            for (g, &a) in spare.as_mut_slice().iter_mut().zip(self.inputs[li].as_slice()) {
                *g = if a <= 0.0 { 0.0 } else { *g };
            }
            std::mem::swap(grad, spare);
        }
        self.layers[0].backward(&self.inputs[0], if last == 0 { dy } else { grad })
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

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
