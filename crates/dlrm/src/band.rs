//! Row bands across the rayon pool, shared by the interaction and the
//! MLPs: each direction of either is one fork whose bands write disjoint
//! row slices of their outputs, handed out in safe Rust.

use el_tensor::Matrix;
use rayon::prelude::*;

/// Gives `m` the shape `rows x cols`, keeping its contents when it already
/// has it: the band kernels write every element of their outputs.
pub(crate) fn fit(m: &mut Matrix, rows: usize, cols: usize) {
    if (m.rows(), m.cols()) != (rows, cols) {
        m.reset_zeroed(rows, cols);
    }
}

/// One fork over bands of `rows` rows: `body(r0, slices)` gets the rows
/// from `r0` on of every buffer in `bufs`, in order. One band runs on the
/// calling thread; an empty batch runs nothing.
pub(crate) fn fork_bands<'a>(
    bufs: impl Iterator<Item = &'a mut Matrix>,
    rows: usize,
    body: impl Fn(usize, &mut [&mut [f32]]) + Sync,
) {
    let mut per_buf: Vec<_> = bufs
        .map(|m| {
            let cols = m.cols();
            m.as_mut_slice().chunks_mut(rows.max(1) * cols)
        })
        .collect();
    let n = per_buf.len();
    let bands = per_buf.first().map_or(0, ExactSizeIterator::len);
    // Band-major: chunk `b` of `slices` holds band `b`'s rows of each buffer.
    let mut slices: Vec<&mut [f32]> = Vec::with_capacity(bands * n);
    for _ in 0..bands {
        slices.extend(per_buf.iter_mut().filter_map(Iterator::next));
    }
    match bands {
        0 => {}
        1 => body(0, &mut slices),
        _ => slices.par_chunks_mut(n).enumerate().for_each(|(b, band)| body(b * rows, band)),
    }
}
