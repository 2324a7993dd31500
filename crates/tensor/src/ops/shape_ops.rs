//! Shape-changing operations: reshape, permute, narrow, concat.

use crate::op::Op;
use crate::pool;
use crate::shape::{for_each_index, Shape};
use crate::tensor::Tensor;

pub(crate) fn permute_kernel(data: &[f32], shape: &Shape, perm: &[usize]) -> (Vec<f32>, Shape) {
    let out_dims: Vec<usize> = perm.iter().map(|&d| shape.dim(d)).collect();
    let out_shape = Shape::new(out_dims);
    let in_strides = shape.strides();
    let mut out = pool::take_zeroed_f32(shape.elem_count());
    let mut oi = 0usize;
    for_each_index(&out_shape, |out_idx| {
        let mut in_off = 0;
        for (od, &src_dim) in perm.iter().enumerate() {
            in_off += out_idx[od] * in_strides[src_dim];
        }
        out[oi] = data[in_off];
        oi += 1;
    });
    (out, out_shape)
}

pub(crate) fn inverse_perm(perm: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; perm.len()];
    for (i, &p) in perm.iter().enumerate() {
        inv[p] = i;
    }
    inv
}

pub(crate) fn narrow_kernel(
    data: &[f32],
    shape: &Shape,
    dim: usize,
    start: usize,
    len: usize,
) -> (Vec<f32>, Shape) {
    let outer: usize = shape.dims()[..dim].iter().product();
    let inner: usize = shape.dims()[dim + 1..].iter().product();
    let dsz = shape.dim(dim);
    let mut out_dims = shape.dims().to_vec();
    out_dims[dim] = len;
    let mut out = pool::take_f32(outer * len * inner);
    for o in 0..outer {
        let base = o * dsz * inner + start * inner;
        out.extend_from_slice(&data[base..base + len * inner]);
    }
    pool::count_copied(out.len() * 4);
    (out, Shape::new(out_dims))
}

/// Scatters `grad` (shaped like the narrow output) back into a zero
/// tensor shaped like the narrow input.
pub(crate) fn narrow_backward_kernel(
    grad: &[f32],
    in_shape: &Shape,
    dim: usize,
    start: usize,
    len: usize,
) -> Vec<f32> {
    let outer: usize = in_shape.dims()[..dim].iter().product();
    let inner: usize = in_shape.dims()[dim + 1..].iter().product();
    let dsz = in_shape.dim(dim);
    let mut out = pool::take_zeroed_f32(in_shape.elem_count());
    for o in 0..outer {
        let dst = o * dsz * inner + start * inner;
        let src = o * len * inner;
        out[dst..dst + len * inner].copy_from_slice(&grad[src..src + len * inner]);
    }
    pool::count_copied(grad.len() * 4);
    out
}

/// Adds the scatter of `grad` (shaped like the narrow output) into
/// `acc` (shaped like the narrow input) without materializing it:
/// bitwise the same as adding [`narrow_backward_kernel`]'s output,
/// including the `+ 0.0` outside the band (which turns `-0.0` into
/// `0.0`).
pub(crate) fn narrow_backward_accumulate(
    acc: &mut [f32],
    grad: &[f32],
    in_shape: &Shape,
    dim: usize,
    start: usize,
    len: usize,
) {
    debug_assert_eq!(acc.len(), in_shape.elem_count(), "gradient shape changed");
    let inner: usize = in_shape.dims()[dim + 1..].iter().product();
    let block = in_shape.dim(dim) * inner;
    if block == 0 {
        return;
    }
    let (lo, hi) = (start * inner, (start + len) * inner);
    for (o, row) in acc.chunks_exact_mut(block).enumerate() {
        let g = &grad[o * (hi - lo)..(o + 1) * (hi - lo)];
        for e in &mut row[..lo] {
            *e += 0.0;
        }
        for (e, d) in row[lo..hi].iter_mut().zip(g) {
            *e += d;
        }
        for e in &mut row[hi..] {
            *e += 0.0;
        }
    }
}

impl Tensor {
    /// Reinterprets the data with a new shape of the same element
    /// count. Free at the data level (the buffer is copied only because
    /// the result is a fresh graph node).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Tensor {
        let shape = shape.into();
        assert_eq!(
            self.elem_count(),
            shape.elem_count(),
            "reshape {} -> {shape} changes element count",
            self.shape()
        );
        Tensor::from_op(self.to_vec(), shape, Op::Reshape(self.clone()))
    }

    /// Reorders dimensions: `out[i0, i1, ..] = self[i_perm[0], ..]`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..rank`.
    ///
    /// # Examples
    ///
    /// ```
    /// use menos_tensor::Tensor;
    /// let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
    /// assert_eq!(t.permute(&[1, 0]).to_vec(), vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    /// ```
    pub fn permute(&self, perm: &[usize]) -> Tensor {
        assert_eq!(perm.len(), self.rank(), "permutation rank mismatch");
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(p < perm.len() && !seen[p], "invalid permutation {perm:?}");
            seen[p] = true;
        }
        let data = self.storage().read();
        let (out, shape) = permute_kernel(&data, self.shape(), perm);
        drop(data);
        Tensor::from_op(out, shape, Op::Permute(self.clone(), perm.to_vec()))
    }

    /// Swaps the last two dimensions (matrix transpose for 2-D).
    ///
    /// # Panics
    ///
    /// Panics if rank < 2.
    pub fn t(&self) -> Tensor {
        assert!(self.rank() >= 2, "transpose needs rank >= 2");
        let mut perm: Vec<usize> = (0..self.rank()).collect();
        perm.swap(self.rank() - 2, self.rank() - 1);
        self.permute(&perm)
    }

    /// Selects `len` indices starting at `start` along dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the dimension.
    pub fn narrow(&self, dim: usize, start: usize, len: usize) -> Tensor {
        assert!(dim < self.rank(), "narrow dim {dim} out of range");
        assert!(
            start + len <= self.shape().dim(dim),
            "narrow range {start}+{len} exceeds dim {dim} of {}",
            self.shape()
        );
        let data = self.storage().read();
        let (out, shape) = narrow_kernel(&data, self.shape(), dim, start, len);
        drop(data);
        Tensor::from_op(out, shape, Op::Narrow(self.clone(), dim, start, len))
    }

    /// Concatenates tensors along `dim`. All other dimensions must
    /// agree.
    ///
    /// # Panics
    ///
    /// Panics on an empty input list or mismatched shapes.
    pub fn concat(tensors: &[Tensor], dim: usize) -> Tensor {
        assert!(!tensors.is_empty(), "concat of zero tensors");
        let first = &tensors[0];
        assert!(dim < first.rank(), "concat dim out of range");
        for t in tensors {
            assert_eq!(t.rank(), first.rank(), "concat rank mismatch");
            for d in 0..first.rank() {
                if d != dim {
                    assert_eq!(
                        t.shape().dim(d),
                        first.shape().dim(d),
                        "concat shape mismatch on dim {d}"
                    );
                }
            }
        }
        let outer: usize = first.dims()[..dim].iter().product();
        let inner: usize = first.dims()[dim + 1..].iter().product();
        let total_dim: usize = tensors.iter().map(|t| t.shape().dim(dim)).sum();
        let mut out_dims = first.dims().to_vec();
        out_dims[dim] = total_dim;
        let mut out = pool::take_f32(outer * total_dim * inner);
        let guards: Vec<_> = tensors.iter().map(|t| t.storage().read()).collect();
        for o in 0..outer {
            for (t, g) in tensors.iter().zip(guards.iter()) {
                let d = t.shape().dim(dim);
                let base = o * d * inner;
                out.extend_from_slice(&g[base..base + d * inner]);
            }
        }
        drop(guards);
        pool::count_copied(out.len() * 4);
        Tensor::from_op(out, Shape::new(out_dims), Op::Concat(tensors.to_vec(), dim))
    }

    /// Stacks heterogeneous micro-batches along the batch axis
    /// (dimension 0): inputs shaped `[b_i, ...]` with identical trailing
    /// dimensions become one `[Σ b_i, ...]` tensor.
    ///
    /// This is the entry point of the batched server step: several
    /// clients' activations are fused so the compute backend sees one
    /// large matmul instead of many small ones. Because every kernel in
    /// this crate is documented row-bitwise-invariant (a row's result
    /// never depends on which tile or batch position it lands in),
    /// `stack_batches` followed by [`Tensor::unstack_batches`] returns
    /// each client's rows bit-identical to running them alone.
    ///
    /// # Panics
    ///
    /// Panics on an empty input list or mismatched trailing dimensions.
    pub fn stack_batches(batches: &[Tensor]) -> Tensor {
        Tensor::concat(batches, 0)
    }

    /// Splits a stacked tensor back into per-client micro-batches:
    /// the inverse of [`Tensor::stack_batches`]. `sizes[i]` is the
    /// batch-dimension extent of part `i`.
    ///
    /// # Panics
    ///
    /// Panics if `sizes` does not sum to the batch dimension.
    pub fn unstack_batches(&self, sizes: &[usize]) -> Vec<Tensor> {
        let total: usize = sizes.iter().sum();
        assert_eq!(
            total,
            self.shape().dim(0),
            "unstack sizes {sizes:?} do not sum to batch dim of {}",
            self.shape()
        );
        let mut out = Vec::with_capacity(sizes.len());
        let mut start = 0;
        for &len in sizes {
            out.push(self.narrow(0, start, len));
            start += len;
        }
        out
    }

    /// Splits into equal chunks along `dim`.
    ///
    /// # Panics
    ///
    /// Panics if the dimension is not divisible by `chunks`.
    pub fn chunk(&self, chunks: usize, dim: usize) -> Vec<Tensor> {
        let dsz = self.shape().dim(dim);
        assert_eq!(
            dsz % chunks,
            0,
            "dim {dim} size {dsz} not divisible by {chunks}"
        );
        let each = dsz / chunks;
        (0..chunks)
            .map(|i| self.narrow(dim, i * each, each))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [4]);
        let r = t.reshape([2, 2]);
        assert_eq!(r.dims(), &[2, 2]);
        assert_eq!(r.to_vec(), t.to_vec());
    }

    #[test]
    #[should_panic(expected = "changes element count")]
    fn reshape_validates_count() {
        Tensor::zeros([4]).reshape([3]);
    }

    #[test]
    fn transpose_2d() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let tt = t.t();
        assert_eq!(tt.dims(), &[3, 2]);
        assert_eq!(tt.to_vec(), vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
        // Double transpose is identity.
        assert_eq!(tt.t().to_vec(), t.to_vec());
    }

    #[test]
    fn permute_4d_head_split() {
        // [b=1, s=2, h=2, d=2] -> [b, h, s, d] as attention does.
        let t = Tensor::from_vec((0..8).map(|x| x as f32).collect(), [1, 2, 2, 2]);
        let p = t.permute(&[0, 2, 1, 3]);
        assert_eq!(p.dims(), &[1, 2, 2, 2]);
        assert_eq!(p.to_vec(), vec![0.0, 1.0, 4.0, 5.0, 2.0, 3.0, 6.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "invalid permutation")]
    fn permute_rejects_duplicates() {
        Tensor::zeros([2, 2]).permute(&[0, 0]);
    }

    #[test]
    fn inverse_perm_round_trips() {
        let perm = [2, 0, 3, 1];
        let inv = inverse_perm(&perm);
        assert_eq!(inv, vec![1, 3, 0, 2]);
        let t = Tensor::from_vec((0..16).map(|x| x as f32).collect(), [2, 2, 2, 2]);
        let round = t.permute(&perm).permute(&inv);
        assert_eq!(round.to_vec(), t.to_vec());
    }

    #[test]
    fn narrow_middle_dim() {
        let t = Tensor::from_vec((0..12).map(|x| x as f32).collect(), [2, 3, 2]);
        let n = t.narrow(1, 1, 2);
        assert_eq!(n.dims(), &[2, 2, 2]);
        assert_eq!(n.to_vec(), vec![2.0, 3.0, 4.0, 5.0, 8.0, 9.0, 10.0, 11.0]);
    }

    #[test]
    #[should_panic(expected = "exceeds dim")]
    fn narrow_validates_range() {
        Tensor::zeros([2, 3]).narrow(1, 2, 2);
    }

    #[test]
    fn narrow_backward_scatters() {
        let shape = Shape::new(vec![2, 3]);
        let grad = vec![1.0, 2.0]; // narrow(1, 1, 1) output grad
        let full = narrow_backward_kernel(&grad, &shape, 1, 1, 1);
        assert_eq!(full, vec![0.0, 1.0, 0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn narrow_accumulate_matches_dense_scatter_bitwise() {
        let shape = Shape::new(vec![2, 3, 2]);
        let grad = vec![1.5, -0.0, 2.0, 0.25, -3.0, 0.0, 4.0, -1.0];
        let mut dense = vec![-0.0, 1.0, f32::MIN_POSITIVE, -2.0, 0.5, -0.0];
        dense.extend_from_slice(&[3.0, -0.0, 7.0, -0.0, 0.0, 1e-30]);
        let mut sparse = dense.clone();
        for (e, d) in dense
            .iter_mut()
            .zip(narrow_backward_kernel(&grad, &shape, 1, 1, 2))
        {
            *e += d;
        }
        narrow_backward_accumulate(&mut sparse, &grad, &shape, 1, 1, 2);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&sparse), bits(&dense));
    }

    #[test]
    fn concat_and_chunk_round_trip() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [1, 2]);
        let b = Tensor::from_vec(vec![3.0, 4.0], [1, 2]);
        let c = Tensor::concat(&[a, b], 0);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        let parts = c.chunk(2, 0);
        assert_eq!(parts[0].to_vec(), vec![1.0, 2.0]);
        assert_eq!(parts[1].to_vec(), vec![3.0, 4.0]);
    }

    #[test]
    fn concat_last_dim() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 5.0, 6.0], [2, 2]);
        let b = Tensor::from_vec(vec![3.0, 7.0], [2, 1]);
        let c = Tensor::concat(&[a, b], 1);
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.to_vec(), vec![1.0, 2.0, 3.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "concat of zero tensors")]
    fn concat_rejects_empty() {
        Tensor::concat(&[], 0);
    }

    #[test]
    fn stack_unstack_round_trips_heterogeneous_batches() {
        let a = Tensor::from_vec(vec![1.0, 2.0], [1, 2]);
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], [2, 2]);
        let s = Tensor::stack_batches(&[a.clone(), b.clone()]);
        assert_eq!(s.dims(), &[3, 2]);
        let parts = s.unstack_batches(&[1, 2]);
        assert_eq!(parts[0].to_vec(), a.to_vec());
        assert_eq!(parts[1].to_vec(), b.to_vec());
    }

    #[test]
    #[should_panic(expected = "do not sum to batch dim")]
    fn unstack_validates_sizes() {
        Tensor::zeros([3, 2]).unstack_batches(&[1, 1]);
    }

    /// The contract the batched server step rests on: a row's matmul
    /// result is bitwise identical whether the row is computed alone or
    /// stacked under other clients' rows.
    #[test]
    fn stacked_matmul_rows_are_bitwise_identical_to_solo_rows() {
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((seed >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        };
        let k = 37;
        let n = 29;
        let w = Tensor::from_vec((0..k * n).map(|_| next()).collect(), [k, n]);
        let parts: Vec<Tensor> = [3usize, 1, 5]
            .iter()
            .map(|&b| Tensor::from_vec((0..b * k).map(|_| next()).collect(), [b, k]))
            .collect();
        let stacked = Tensor::stack_batches(&parts).matmul(&w);
        let sizes = [3, 1, 5];
        for (part, piece) in parts.iter().zip(stacked.unstack_batches(&sizes)) {
            let solo: Vec<u32> = part
                .matmul(&w)
                .to_vec()
                .iter()
                .map(|f| f.to_bits())
                .collect();
            let batched: Vec<u32> = piece.to_vec().iter().map(|f| f.to_bits()).collect();
            assert_eq!(solo, batched);
        }
    }
}
