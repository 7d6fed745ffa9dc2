//! Quantized embedding tables — the *other* compression direction.
//!
//! The paper's §I splits embedding compression into two families: low-bit
//! quantization (cheap lookups, "training with a quantized embedding table
//! often yields significant accuracy losses") and factorization (TT —
//! negligible accuracy loss, extra compute). To make that comparison
//! runnable, this module provides the quantization family:
//!
//! * [`QuantizedEmbeddingBag`] — int8 rows with per-row scale/zero-point
//!   (4x smaller than f32); training quantizes back after every sparse
//!   update, which is where the accuracy erosion comes from;
//! * [`Bf16EmbeddingBag`] — bfloat16 storage (2x smaller), the milder
//!   variant real systems deploy.
//!
//! The `extra_quantization_vs_tt` bench puts both against the Eff-TT table
//! on footprint and accuracy.

use el_tensor::Matrix;
use rand::Rng;

/// An int8-quantized embedding table with per-row affine parameters.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct QuantizedEmbeddingBag {
    /// Quantized rows, `rows x dim`.
    codes: Vec<i8>,
    /// Per-row scale.
    scales: Vec<f32>,
    /// Per-row zero point (float, asymmetric quantization).
    zeros: Vec<f32>,
    rows: usize,
    dim: usize,
}

impl QuantizedEmbeddingBag {
    /// Quantizes a freshly initialized table.
    pub fn new(rows: usize, dim: usize, scale: f32, rng: &mut impl Rng) -> Self {
        let dense = Matrix::uniform(rows, dim, scale, rng);
        Self::from_dense(&dense)
    }

    /// Quantizes an existing dense table row by row.
    pub fn from_dense(dense: &Matrix) -> Self {
        let (rows, dim) = (dense.rows(), dense.cols());
        let mut codes = vec![0i8; rows * dim];
        let mut scales = vec![0.0f32; rows];
        let mut zeros = vec![0.0f32; rows];
        for r in 0..rows {
            let row = dense.row(r);
            let (s, z) = row_params(row);
            scales[r] = s;
            zeros[r] = z;
            for (c, &v) in row.iter().enumerate() {
                codes[r * dim + c] = quantize(v, s, z);
            }
        }
        Self { codes, scales, zeros, rows, dim }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Storage footprint in bytes (codes + per-row parameters).
    pub fn footprint_bytes(&self) -> usize {
        self.codes.len() + self.scales.len() * 8
    }

    /// Dequantizes row `r` into `out`.
    pub fn dequantize_row(&self, r: usize, out: &mut [f32]) {
        let (s, z) = (self.scales[r], self.zeros[r]);
        for (o, &q) in out.iter_mut().zip(&self.codes[r * self.dim..(r + 1) * self.dim]) {
            *o = dequantize(q, s, z);
        }
    }

    /// Sum-pooled lookup (dequantize + add).
    pub fn forward(&self, indices: &[u32], offsets: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(offsets.len() - 1, self.dim);
        for s in 0..offsets.len() - 1 {
            let dst = out.row_mut(s);
            for &i in &indices[offsets[s] as usize..offsets[s + 1] as usize] {
                let r = i as usize;
                let (s, z) = (self.scales[r], self.zeros[r]);
                for (d, &q) in dst.iter_mut().zip(&self.codes[r * self.dim..(r + 1) * self.dim]) {
                    *d += dequantize(q, s, z);
                }
            }
        }
        out
    }

    /// Sparse SGD step in quantized space: dequantize the touched row,
    /// apply the gradient, re-quantize. The repeated round trip is the
    /// accuracy tax quantized *training* pays (paper §I).
    pub fn backward_sgd(&mut self, indices: &[u32], offsets: &[u32], d_out: &Matrix, lr: f32) {
        let dim = self.dim;
        let mut unique: Vec<u32> = indices.to_vec();
        unique.sort_unstable();
        unique.dedup();
        let mut grads = vec![0.0f32; unique.len() * dim];
        for s in 0..d_out.rows() {
            let g = d_out.row(s);
            for &i in &indices[offsets[s] as usize..offsets[s + 1] as usize] {
                let slot = unique.binary_search(&i).expect("seen"); // PANIC-OK: `unique` built from these indices
                for (v, gv) in grads[slot * dim..(slot + 1) * dim].iter_mut().zip(g) {
                    *v += gv;
                }
            }
        }
        let mut row = vec![0.0f32; dim];
        for (slot, &i) in unique.iter().enumerate() {
            let r = i as usize;
            self.dequantize_row(r, &mut row);
            for (w, g) in row.iter_mut().zip(&grads[slot * dim..(slot + 1) * dim]) {
                *w -= lr * g;
            }
            let (s, z) = row_params(&row);
            self.scales[r] = s;
            self.zeros[r] = z;
            for (c, &v) in row.iter().enumerate() {
                self.codes[r * dim + c] = quantize(v, s, z);
            }
        }
    }
}

fn row_params(row: &[f32]) -> (f32, f32) {
    let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
    for &v in row {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if !lo.is_finite() || !hi.is_finite() || hi <= lo {
        return (1e-8, if lo.is_finite() { lo } else { 0.0 });
    }
    // divisor 254 (not 255): the extremes land exactly on codes -127/+127,
    // so a dequantize -> requantize round trip is a fixed point and the
    // scale does not decay across training steps.
    ((hi - lo) / 254.0, (hi + lo) / 2.0)
}

#[inline]
fn quantize(v: f32, s: f32, z: f32) -> i8 {
    ((v - z) / s).round().clamp(-127.0, 127.0) as i8
}

/// The value code `q` stands for under scale `s` and zero point `z`.
#[inline]
fn dequantize(q: i8, s: f32, z: f32) -> f32 {
    q as f32 * s + z
}

/// bfloat16 helpers: truncate the f32 mantissa to 7 bits (round to nearest
/// even on the dropped bits).
#[inline]
pub fn f32_to_bf16(v: f32) -> u16 {
    let bits = v.to_bits();
    let rounding = 0x7fff + ((bits >> 16) & 1);
    ((bits + rounding) >> 16) as u16
}

/// bfloat16 to f32.
#[inline]
pub fn bf16_to_f32(b: u16) -> f32 {
    f32::from_bits((b as u32) << 16)
}

/// A bfloat16-storage embedding table (2x smaller than f32; the storage
/// format NVIDIA/Meta deploy for large tables).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Bf16EmbeddingBag {
    data: Vec<u16>,
    rows: usize,
    dim: usize,
}

impl Bf16EmbeddingBag {
    /// A randomly initialized bf16 table.
    pub fn new(rows: usize, dim: usize, scale: f32, rng: &mut impl Rng) -> Self {
        let data = (0..rows * dim).map(|_| f32_to_bf16(rng.gen_range(-scale..=scale))).collect();
        Self { data, rows, dim }
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Storage footprint in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.data.len() * 2
    }

    /// Sum-pooled lookup.
    pub fn forward(&self, indices: &[u32], offsets: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(offsets.len() - 1, self.dim);
        for s in 0..offsets.len() - 1 {
            let dst = out.row_mut(s);
            for &i in &indices[offsets[s] as usize..offsets[s + 1] as usize] {
                let row = &self.data[i as usize * self.dim..(i as usize + 1) * self.dim];
                for (d, &q) in dst.iter_mut().zip(row) {
                    *d += bf16_to_f32(q);
                }
            }
        }
        out
    }

    /// Sparse SGD step with bf16 round-tripping.
    pub fn backward_sgd(&mut self, indices: &[u32], offsets: &[u32], d_out: &Matrix, lr: f32) {
        for s in 0..d_out.rows() {
            let g = d_out.row(s);
            for &i in &indices[offsets[s] as usize..offsets[s + 1] as usize] {
                let row = &mut self.data[i as usize * self.dim..(i as usize + 1) * self.dim];
                for (q, gv) in row.iter_mut().zip(g) {
                    *q = f32_to_bf16(bf16_to_f32(*q) - lr * gv);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn bf16_round_trip_error_is_bounded() {
        for v in [0.0f32, 1.0, -1.0, 0.1234, -3.5e-3, 1024.5] {
            let r = bf16_to_f32(f32_to_bf16(v));
            assert!((r - v).abs() <= v.abs() / 128.0 + 1e-30, "bf16 error too large: {v} -> {r}");
        }
    }

    #[test]
    fn int8_quantization_error_is_bounded_per_row() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let dense = Matrix::uniform(20, 16, 0.5, &mut rng);
        let q = QuantizedEmbeddingBag::from_dense(&dense);
        let mut row = vec![0.0f32; 16];
        for r in 0..20 {
            q.dequantize_row(r, &mut row);
            for (a, b) in row.iter().zip(dense.row(r)) {
                // one quantization step of a [-0.5, 0.5] row ~ 1/255
                assert!((a - b).abs() < 1.0 / 128.0, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn quantized_forward_approximates_dense() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let dense = Matrix::uniform(30, 8, 0.3, &mut rng);
        let q = QuantizedEmbeddingBag::from_dense(&dense);
        let indices = [1u32, 5, 1, 29];
        let offsets = [0u32, 2, 4];
        let got = q.forward(&indices, &offsets);
        // dense reference
        let mut want = Matrix::zeros(2, 8);
        for s in 0..2 {
            for &i in &indices[offsets[s] as usize..offsets[s + 1] as usize] {
                for (d, v) in want.row_mut(s).iter_mut().zip(dense.row(i as usize)) {
                    *d += v;
                }
            }
        }
        assert!(got.max_abs_diff(&want) < 0.05);
    }

    #[test]
    fn footprints_are_4x_and_2x_smaller() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let q = QuantizedEmbeddingBag::new(1000, 64, 0.1, &mut rng);
        let b = Bf16EmbeddingBag::new(1000, 64, 0.1, &mut rng);
        let dense_bytes = 1000 * 64 * 4;
        assert!(q.footprint_bytes() * 7 < dense_bytes * 2, "int8 ~4x smaller");
        assert_eq!(b.footprint_bytes() * 2, dense_bytes);
    }

    #[test]
    fn quantized_training_moves_weights() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut q = QuantizedEmbeddingBag::new(10, 8, 0.3, &mut rng);
        let before = q.forward(&[3], &[0, 1]);
        let grad = Matrix::full(1, 8, 1.0);
        for _ in 0..5 {
            q.backward_sgd(&[3], &[0, 1], &grad, 0.05);
        }
        let after = q.forward(&[3], &[0, 1]);
        // gradient of +1 should push every coordinate down
        let moved = after.as_slice().iter().zip(before.as_slice()).filter(|(a, b)| a < b).count();
        assert!(moved >= 6, "most coordinates should decrease, moved {moved}");
    }

    #[test]
    fn constant_rows_quantize_safely() {
        let dense = Matrix::full(3, 4, 0.25);
        let q = QuantizedEmbeddingBag::from_dense(&dense);
        let mut row = vec![0.0f32; 4];
        q.dequantize_row(1, &mut row);
        for v in row {
            assert!((v - 0.25).abs() < 1e-6);
        }
    }
}
