//! The recorded operation graph and per-op backward rules.

use std::sync::Arc;

use crate::ops::binary::reduce_grad_to;
use crate::ops::matmul::matmul_backward;
use crate::ops::nn::{
    cross_entropy_backward, embedding_backward, layer_norm_backward, rms_norm_backward,
    rope_backward, softmax_backward,
};
use crate::ops::shape_ops::{inverse_perm, permute_kernel};
use crate::ops::unary::{gelu_exact_prime, gelu_prime, sigmoid, silu_prime};
use crate::tensor::Tensor;

/// A recorded tensor operation, holding its inputs.
///
/// Backward passes *recompute* any forward quantities they need (e.g.
/// softmax outputs, normalization statistics) from the stored inputs
/// rather than caching them — this keeps the graph small and matches
/// the recompute-oriented design of Menos' on-demand memory policy.
pub(crate) enum Op {
    Add(Tensor, Tensor),
    Sub(Tensor, Tensor),
    Mul(Tensor, Tensor),
    Div(Tensor, Tensor),
    AddScalar(Tensor),
    MulScalar(Tensor, f32),
    PowScalar(Tensor, i32),
    Exp(Tensor),
    Ln(Tensor),
    Tanh(Tensor),
    Sqrt(Tensor),
    Sigmoid(Tensor),
    Relu(Tensor),
    Gelu(Tensor),
    GeluExact(Tensor),
    Silu(Tensor),
    Matmul(Tensor, Tensor),
    SumAll(Tensor),
    MeanAll(Tensor),
    SumLastKeepdim(Tensor),
    Reshape(Tensor),
    Permute(Tensor, Vec<usize>),
    Narrow(Tensor, usize, usize, usize),
    Concat(Vec<Tensor>, usize),
    Softmax(Tensor),
    LayerNorm {
        x: Tensor,
        gamma: Tensor,
        beta: Tensor,
        eps: f32,
    },
    RmsNorm {
        x: Tensor,
        gamma: Tensor,
        eps: f32,
    },
    Embedding {
        table: Tensor,
        ids: Arc<Vec<usize>>,
    },
    CrossEntropy {
        logits: Tensor,
        targets: Arc<Vec<usize>>,
    },
    Rope {
        x: Tensor,
        base: f32,
        pos_offset: usize,
    },
    Dropout {
        x: Tensor,
        /// Pre-scaled keep mask (0 or 1/(1-p)) applied in both passes.
        mask: Tensor,
    },
}

impl Op {
    /// The input tensors of this op, in a fixed order.
    pub(crate) fn parents(&self) -> Vec<Tensor> {
        match self {
            Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::Div(a, b) | Op::Matmul(a, b) => {
                vec![a.clone(), b.clone()]
            }
            Op::AddScalar(a)
            | Op::MulScalar(a, _)
            | Op::PowScalar(a, _)
            | Op::Exp(a)
            | Op::Ln(a)
            | Op::Tanh(a)
            | Op::Sqrt(a)
            | Op::Sigmoid(a)
            | Op::Relu(a)
            | Op::Gelu(a)
            | Op::GeluExact(a)
            | Op::Silu(a)
            | Op::SumAll(a)
            | Op::MeanAll(a)
            | Op::SumLastKeepdim(a)
            | Op::Reshape(a)
            | Op::Permute(a, _)
            | Op::Narrow(a, _, _, _)
            | Op::Softmax(a) => vec![a.clone()],
            Op::Concat(ts, _) => ts.clone(),
            Op::LayerNorm { x, gamma, beta, .. } => {
                vec![x.clone(), gamma.clone(), beta.clone()]
            }
            Op::RmsNorm { x, gamma, .. } => vec![x.clone(), gamma.clone()],
            Op::Embedding { table, .. } => vec![table.clone()],
            Op::CrossEntropy { logits, .. } => vec![logits.clone()],
            Op::Rope { x, .. } => vec![x.clone()],
            Op::Dropout { x, .. } => vec![x.clone()],
        }
    }

    /// Computes gradients for each parent given the output gradient,
    /// returned as `(parent, grad_data)` pairs in parent order.
    pub(crate) fn backward(&self, out: &Tensor, grad: &[f32]) -> Vec<(Tensor, Vec<f32>)> {
        match self {
            Op::Add(a, b) => vec![
                (a.clone(), reduce_grad_to(grad, out.shape(), a.shape())),
                (b.clone(), reduce_grad_to(grad, out.shape(), b.shape())),
            ],
            Op::Sub(a, b) => {
                let gb: Vec<f32> = grad.iter().map(|g| -g).collect();
                vec![
                    (a.clone(), reduce_grad_to(grad, out.shape(), a.shape())),
                    (b.clone(), reduce_grad_to(&gb, out.shape(), b.shape())),
                ]
            }
            Op::Mul(a, b) => {
                // Gradient w.r.t. a is grad * broadcast(b); expand each
                // operand to the output shape first.
                let (b_bcast, _) =
                    crate::ops::binary::broadcast_binary_kernel(b, &out_like(out), |bv, _| bv);
                let (a_bcast, _) =
                    crate::ops::binary::broadcast_binary_kernel(a, &out_like(out), |av, _| av);
                let ga: Vec<f32> = grad.iter().zip(&b_bcast).map(|(g, bv)| g * bv).collect();
                let gb: Vec<f32> = grad.iter().zip(&a_bcast).map(|(g, av)| g * av).collect();
                vec![
                    (a.clone(), reduce_grad_to(&ga, out.shape(), a.shape())),
                    (b.clone(), reduce_grad_to(&gb, out.shape(), b.shape())),
                ]
            }
            Op::Div(a, b) => {
                let (b_bcast, _) =
                    crate::ops::binary::broadcast_binary_kernel(b, &out_like(out), |bv, _| bv);
                let (a_bcast, _) =
                    crate::ops::binary::broadcast_binary_kernel(a, &out_like(out), |av, _| av);
                let ga: Vec<f32> = grad.iter().zip(&b_bcast).map(|(g, bv)| g / bv).collect();
                let gb: Vec<f32> = grad
                    .iter()
                    .zip(a_bcast.iter().zip(&b_bcast))
                    .map(|(g, (av, bv))| -g * av / (bv * bv))
                    .collect();
                vec![
                    (a.clone(), reduce_grad_to(&ga, out.shape(), a.shape())),
                    (b.clone(), reduce_grad_to(&gb, out.shape(), b.shape())),
                ]
            }
            Op::AddScalar(a) => vec![(a.clone(), grad.to_vec())],
            Op::MulScalar(a, s) => {
                vec![(a.clone(), grad.iter().map(|g| g * s).collect())]
            }
            Op::PowScalar(a, p) => {
                let x = a.storage().read();
                let g = grad
                    .iter()
                    .zip(x.iter())
                    .map(|(g, &xv)| g * (*p as f32) * xv.powi(p - 1))
                    .collect();
                drop(x);
                vec![(a.clone(), g)]
            }
            Op::Exp(a) => unary_grad(a, grad, |x| x.exp()),
            Op::Ln(a) => unary_grad(a, grad, |x| 1.0 / x),
            Op::Tanh(a) => unary_grad(a, grad, |x| {
                let t = x.tanh();
                1.0 - t * t
            }),
            Op::Sqrt(a) => unary_grad(a, grad, |x| 0.5 / x.sqrt()),
            Op::Sigmoid(a) => unary_grad(a, grad, |x| {
                let s = sigmoid(x);
                s * (1.0 - s)
            }),
            Op::Relu(a) => unary_grad(a, grad, |x| if x > 0.0 { 1.0 } else { 0.0 }),
            Op::Gelu(a) => unary_grad(a, grad, gelu_prime),
            Op::GeluExact(a) => unary_grad(a, grad, gelu_exact_prime),
            Op::Silu(a) => unary_grad(a, grad, silu_prime),
            Op::Matmul(a, b) => {
                let (ga, gb) = matmul_backward(a, b, grad);
                vec![(a.clone(), ga), (b.clone(), gb)]
            }
            Op::SumAll(a) => {
                let g = grad[0];
                vec![(a.clone(), vec![g; a.elem_count()])]
            }
            Op::MeanAll(a) => {
                let g = grad[0] / a.elem_count() as f32;
                vec![(a.clone(), vec![g; a.elem_count()])]
            }
            Op::SumLastKeepdim(a) => {
                let (rows, cols) = a.shape().rows_cols();
                let mut g = vec![0.0f32; a.elem_count()];
                for r in 0..rows {
                    for c in 0..cols {
                        g[r * cols + c] = grad[r];
                    }
                }
                vec![(a.clone(), g)]
            }
            Op::Reshape(a) => vec![(a.clone(), grad.to_vec())],
            Op::Permute(a, perm) => {
                let inv = inverse_perm(perm);
                let (g, _) = permute_kernel(grad, out.shape(), &inv);
                vec![(a.clone(), g)]
            }
            Op::Narrow(..) => {
                unreachable!("the autograd engine scatters narrow gradients itself")
            }
            Op::Concat(ts, dim) => {
                let dim = *dim;
                let outer: usize = out.dims()[..dim].iter().product();
                let inner: usize = out.dims()[dim + 1..].iter().product();
                let total = out.shape().dim(dim);
                let mut grads: Vec<Vec<f32>> =
                    ts.iter().map(|t| vec![0.0f32; t.elem_count()]).collect();
                for o in 0..outer {
                    let mut offset = 0usize;
                    for (ti, t) in ts.iter().enumerate() {
                        let d = t.shape().dim(dim);
                        let src = o * total * inner + offset * inner;
                        let dst = o * d * inner;
                        grads[ti][dst..dst + d * inner]
                            .copy_from_slice(&grad[src..src + d * inner]);
                        offset += d;
                    }
                }
                ts.iter().cloned().zip(grads).collect()
            }
            Op::Softmax(a) => vec![(a.clone(), softmax_backward(a, grad))],
            Op::LayerNorm {
                x,
                gamma,
                beta,
                eps,
            } => {
                let (dx, dg, db) = layer_norm_backward(x, gamma, *eps, grad);
                vec![(x.clone(), dx), (gamma.clone(), dg), (beta.clone(), db)]
            }
            Op::RmsNorm { x, gamma, eps } => {
                let (dx, dg) = rms_norm_backward(x, gamma, *eps, grad);
                vec![(x.clone(), dx), (gamma.clone(), dg)]
            }
            Op::Embedding { table, ids } => {
                vec![(table.clone(), embedding_backward(table, ids, grad))]
            }
            Op::CrossEntropy { logits, targets } => {
                vec![(
                    logits.clone(),
                    cross_entropy_backward(logits, targets, grad[0]),
                )]
            }
            Op::Rope {
                x,
                base,
                pos_offset,
            } => {
                vec![(x.clone(), rope_backward(x, *base, *pos_offset, grad))]
            }
            Op::Dropout { x, mask } => {
                let m = mask.storage().read();
                let g = grad.iter().zip(m.iter()).map(|(g, m)| g * m).collect();
                drop(m);
                vec![(x.clone(), g)]
            }
        }
    }
}

/// A zero tensor with the same shape as `out`, used as a shape carrier
/// for broadcasting kernels during backward.
fn out_like(out: &Tensor) -> Tensor {
    Tensor::zeros(out.shape().clone())
}

fn unary_grad(a: &Tensor, grad: &[f32], dfdx: impl Fn(f32) -> f32) -> Vec<(Tensor, Vec<f32>)> {
    let x = a.storage().read();
    let g = grad
        .iter()
        .zip(x.iter())
        .map(|(g, &xv)| g * dfdx(xv))
        .collect();
    drop(x);
    vec![(a.clone(), g)]
}
