//! Reverse-mode automatic differentiation.

use std::collections::{HashMap, HashSet};

use crate::op::Op;
use crate::ops::shape_ops::{narrow_backward_accumulate, narrow_backward_kernel};
use crate::tensor::Tensor;

/// One buffered gradient contribution to a tensor.
enum Contribution {
    /// Shaped like the receiving tensor.
    Dense(Vec<f32>),
    /// A `narrow(dim, start, len)` output's gradient, kept at the
    /// narrowed size and scattered into the receiving tensor only when
    /// contributions are summed. A tensor split into `k` bands (a
    /// stacked multi-client batch) then buffers one tensor's worth of
    /// band gradients instead of `k` full-size zero-padded copies.
    Band {
        data: Vec<f32>,
        dim: usize,
        start: usize,
        len: usize,
    },
}

/// Gradients produced by [`Tensor::backward`], keyed by tensor
/// identity.
///
/// Only leaf tensors with `requires_grad` (parameters and
/// gradient-ready inputs, i.e. tensors no recorded op produced)
/// receive entries; interior gradients are released as soon as they
/// have been propagated. Gradients are plain (untracked) tensors;
/// double backward is not supported.
///
/// # Examples
///
/// ```
/// use menos_tensor::Tensor;
///
/// let w = Tensor::var_from_vec(vec![3.0], [1]);
/// let loss = (&w * &w).sum_all();
/// let grads = loss.backward();
/// assert_eq!(grads.get(&w).unwrap().to_vec(), vec![6.0]);
/// ```
#[derive(Debug, Default)]
pub struct GradStore {
    grads: HashMap<u64, Tensor>,
}

impl GradStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        GradStore::default()
    }

    /// The gradient of `t`, if one was computed.
    pub fn get(&self, t: &Tensor) -> Option<&Tensor> {
        self.grads.get(&t.id())
    }

    /// Removes and returns the gradient of `t`.
    pub fn remove(&mut self, t: &Tensor) -> Option<Tensor> {
        self.grads.remove(&t.id())
    }

    /// Stores `grad` as the gradient of `t`, replacing any existing
    /// entry. Used when redistributing the gradients of a fused
    /// (batched) backward pass to their owning sessions.
    pub fn insert(&mut self, t: &Tensor, grad: Tensor) {
        self.grads.insert(t.id(), grad);
    }

    /// Number of tensors with gradients.
    pub fn len(&self) -> usize {
        self.grads.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }

    /// Iterates over `(tensor_id, gradient)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &Tensor)> {
        self.grads.iter()
    }

    /// Inserts a gradient by raw tensor id (backward-pass internal).
    fn insert_raw(&mut self, id: u64, grad: Tensor) {
        self.grads.insert(id, grad);
    }

    /// Total bytes held by all gradients — used by the memory
    /// accounting layer.
    pub fn size_bytes(&self) -> u64 {
        self.grads.values().map(Tensor::size_bytes).sum()
    }

    /// Scales every gradient in place — used to average accumulated
    /// micro-batch gradients before an optimizer step.
    pub fn scale(&mut self, factor: f32) {
        for grad in self.grads.values() {
            for g in grad.storage().write().iter_mut() {
                *g *= factor;
            }
        }
    }

    /// Merges another store into this one, accumulating gradients for
    /// tensors present in both. Split-learning clients use this to
    /// combine the output-section and input-section backward passes of
    /// one optimization step.
    pub fn merge(&mut self, other: GradStore) {
        for (id, grad) in other.grads {
            match self.grads.get_mut(&id) {
                Some(existing) => {
                    let g = grad.to_vec();
                    let mut w = existing.storage().write();
                    for (e, d) in w.iter_mut().zip(g.iter()) {
                        *e += d;
                    }
                }
                None => {
                    self.grads.insert(id, grad);
                }
            }
        }
    }
}

impl Tensor {
    /// Runs reverse-mode differentiation from this tensor.
    ///
    /// The seed gradient is all-ones (for the usual scalar-loss case
    /// this is the conventional `dL/dL = 1`). Use
    /// [`Tensor::backward_with_grad`] to seed with an explicit
    /// gradient — this is how the *client* side of split fine-tuning
    /// resumes back-propagation with gradients received over the
    /// network.
    pub fn backward(&self) -> GradStore {
        self.backward_with_grad(&Tensor::ones(self.shape().clone()))
    }

    /// Reverse-mode differentiation seeded with `grad` (same shape as
    /// `self`).
    ///
    /// # Panics
    ///
    /// Panics if `grad` has a different shape.
    pub fn backward_with_grad(&self, grad: &Tensor) -> GradStore {
        assert_eq!(
            grad.shape(),
            self.shape(),
            "seed gradient shape {} does not match tensor {}",
            grad.shape(),
            self.shape()
        );
        let mut store = GradStore::new();
        if !self.requires_grad() {
            return store;
        }

        // Topological order via iterative post-order DFS.
        let mut topo: Vec<Tensor> = Vec::new();
        let mut visited: HashSet<u64> = HashSet::new();
        let mut stack: Vec<(Tensor, bool)> = vec![(self.clone(), false)];
        while let Some((t, expanded)) = stack.pop() {
            if expanded {
                topo.push(t);
                continue;
            }
            if !visited.insert(t.id()) {
                continue;
            }
            let parents = t.op().map(|op| op.parents()).unwrap_or_default();
            stack.push((t, true));
            for p in parents {
                if p.requires_grad() && !visited.contains(&p.id()) {
                    stack.push((p, false));
                }
            }
        }

        // Contributions are buffered per tensor and summed in ascending
        // consumer-creation order, NOT in traversal-arrival order. The
        // traversal order depends on the global graph shape, so two
        // graphs computing the same per-row math (e.g. a solo model and
        // its image inside a stacked multi-client batch) would group
        // float additions differently and drift by ulps. Creation order
        // is a structural property of the op that built each consumer,
        // identical in both graphs, which makes gradients bitwise
        // reproducible across graph embeddings.
        let mut pending: HashMap<u64, Vec<(u64, Contribution)>> = HashMap::new();
        // Seed sorts first: no real consumer can have id 0 here because
        // the root itself was created after id 0.
        pending.insert(self.id(), vec![(0, Contribution::Dense(grad.to_vec()))]);

        for t in topo.iter().rev() {
            let Some(mut contribs) = pending.remove(&t.id()) else {
                continue;
            };
            contribs.sort_by_key(|(consumer, _)| *consumer);
            let mut it = contribs.into_iter().map(|(_, c)| c);
            let mut acc = match it.next().expect("non-empty contribution list") {
                Contribution::Dense(data) => data,
                Contribution::Band {
                    data,
                    dim,
                    start,
                    len,
                } => narrow_backward_kernel(&data, t.shape(), dim, start, len),
            };
            for c in it {
                match c {
                    Contribution::Dense(data) => {
                        debug_assert_eq!(acc.len(), data.len(), "gradient shape changed");
                        for (e, d) in acc.iter_mut().zip(data.iter()) {
                            *e += d;
                        }
                    }
                    Contribution::Band {
                        data,
                        dim,
                        start,
                        len,
                    } => narrow_backward_accumulate(&mut acc, &data, t.shape(), dim, start, len),
                }
            }
            let Some(op) = t.op() else {
                store.insert_raw(t.id(), Tensor::from_vec(acc, t.shape().clone()));
                continue;
            };
            // Interior gradients are spent once propagated; only leaves
            // (parameters, gradient-ready inputs) reach the store.
            if let Op::Narrow(a, dim, start, len) = op {
                if a.requires_grad() {
                    let band = Contribution::Band {
                        data: acc,
                        dim: *dim,
                        start: *start,
                        len: *len,
                    };
                    pending.entry(a.id()).or_default().push((t.id(), band));
                }
            } else {
                for (parent, pgrad) in op.backward(t, &acc) {
                    if parent.requires_grad() {
                        pending
                            .entry(parent.id())
                            .or_default()
                            .push((t.id(), Contribution::Dense(pgrad)));
                    }
                }
                crate::pool::recycle_f32(acc);
            }
        }
        store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < tol, "{a:?} vs {b:?}");
        }
    }

    /// Central finite differences of `f` w.r.t. `x`.
    fn finite_diff(x: &Tensor, f: impl Fn(&Tensor) -> Tensor) -> Vec<f32> {
        let eps = 1e-2f32;
        let n = x.elem_count();
        let base = x.to_vec();
        let mut grads = Vec::with_capacity(n);
        for i in 0..n {
            let mut plus = base.clone();
            plus[i] += eps;
            let mut minus = base.clone();
            minus[i] -= eps;
            let xp = Tensor::var_from_vec(plus, x.shape().clone());
            let xm = Tensor::var_from_vec(minus, x.shape().clone());
            let fp = f(&xp).to_scalar();
            let fm = f(&xm).to_scalar();
            grads.push((fp - fm) / (2.0 * eps));
        }
        grads
    }

    fn check_grad(x_data: Vec<f32>, shape: &[usize], f: impl Fn(&Tensor) -> Tensor, tol: f32) {
        let x = Tensor::var_from_vec(x_data, shape.to_vec());
        let loss = f(&x);
        let grads = loss.backward();
        let analytic = grads.get(&x).expect("missing gradient").to_vec();
        let numeric = finite_diff(&x, f);
        assert_close(&analytic, &numeric, tol);
    }

    #[test]
    fn grad_of_square() {
        check_grad(vec![1.0, -2.0, 0.5], &[3], |x| (x * x).sum_all(), 1e-3);
    }

    #[test]
    fn grad_of_binary_chain() {
        check_grad(
            vec![0.5, 1.5],
            &[2],
            |x| {
                let c = Tensor::from_vec(vec![2.0, -1.0], [2]);
                (&(x + &c) * x).sum_all()
            },
            1e-3,
        );
    }

    #[test]
    fn grad_of_div() {
        check_grad(
            vec![1.0, 2.0],
            &[2],
            |x| {
                let c = Tensor::from_vec(vec![3.0, 4.0], [2]);
                (&c / x).sum_all()
            },
            1e-2,
        );
    }

    #[test]
    fn grad_of_broadcast_add() {
        // Bias broadcast: gradient must reduce over rows.
        let bias = Tensor::var_from_vec(vec![0.1, 0.2], [2]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [3, 2]);
        let loss = x.add(&bias).sum_all();
        let grads = loss.backward();
        assert_eq!(grads.get(&bias).unwrap().to_vec(), vec![3.0, 3.0]);
    }

    #[test]
    fn grad_of_unary_ops() {
        for f in [
            (|x: &Tensor| x.exp().sum_all()) as fn(&Tensor) -> Tensor,
            |x| x.tanh().sum_all(),
            |x| x.sigmoid().sum_all(),
            |x| x.gelu_exact().sum_all(),
            |x| x.silu().sum_all(),
        ] {
            check_grad(vec![0.3, -0.8, 1.2], &[3], f, 1e-2);
        }
        // ln and sqrt need positive inputs.
        check_grad(vec![0.5, 1.5, 3.0], &[3], |x| x.ln().sum_all(), 1e-2);
        check_grad(vec![0.5, 1.5, 3.0], &[3], |x| x.sqrt().sum_all(), 1e-2);
        // The fast (sigmoid-form) gelu is smooth enough that finite
        // differences through its polynomial exp2 stay within the
        // gradient-check tolerance.
        check_grad(vec![0.3, -0.8, 1.2], &[3], |x| x.gelu().sum_all(), 1e-2);
    }

    #[test]
    fn grad_of_matmul() {
        check_grad(
            vec![1.0, 2.0, 3.0, 4.0],
            &[2, 2],
            |x| {
                let w = Tensor::from_vec(vec![0.5, -1.0, 2.0, 1.5], [2, 2]);
                x.matmul(&w).sum_all()
            },
            1e-2,
        );
        // Gradient w.r.t. the weight too.
        let w = Tensor::var_from_vec(vec![0.5, -1.0, 2.0, 1.5], [2, 2]);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let grads = x.matmul(&w).sum_all().backward();
        let analytic = grads.get(&w).unwrap().to_vec();
        let numeric = finite_diff(&w, |w| x.matmul(w).sum_all());
        assert_close(&analytic, &numeric, 1e-2);
    }

    #[test]
    fn grad_of_batched_matmul() {
        let w = Tensor::from_vec((0..8).map(|i| 0.3 * i as f32 - 1.0).collect(), [2, 2, 2]);
        check_grad(
            (0..8).map(|i| 0.1 * i as f32).collect(),
            &[2, 2, 2],
            move |x| x.matmul(&w).sum_all(),
            1e-2,
        );
    }

    #[test]
    fn grad_of_softmax() {
        check_grad(
            vec![0.5, -0.5, 1.0, 0.2],
            &[2, 2],
            |x| {
                let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
                (&x.softmax_last() * &w).sum_all()
            },
            1e-2,
        );
    }

    #[test]
    fn grad_of_layer_norm() {
        let gamma = Tensor::from_vec(vec![1.5, 0.5, 2.0], [3]);
        let beta = Tensor::from_vec(vec![0.1, -0.1, 0.2], [3]);
        check_grad(
            vec![0.5, -1.0, 2.0, 1.0, 0.0, -0.5],
            &[2, 3],
            |x| {
                let w = Tensor::from_vec(vec![1.0, -2.0, 0.5, 2.0, 1.0, -1.0], [2, 3]);
                (&x.layer_norm(&gamma, &beta, 1e-5) * &w).sum_all()
            },
            2e-2,
        );
        // Gamma / beta gradients.
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0], [1, 3]);
        let g = Tensor::var_from_vec(vec![1.0, 1.0, 1.0], [3]);
        let b = Tensor::var_from_vec(vec![0.0, 0.0, 0.0], [3]);
        let w = Tensor::from_vec(vec![1.0, -2.0, 0.5], [1, 3]);
        let grads = (&x.layer_norm(&g, &b, 1e-5) * &w).sum_all().backward();
        let dg = grads.get(&g).unwrap().to_vec();
        let numeric = finite_diff(&g, |g| (&x.layer_norm(g, &b.detach(), 1e-5) * &w).sum_all());
        assert_close(&dg, &numeric, 2e-2);
        let db = grads.get(&b).unwrap().to_vec();
        assert_close(&db, &w.to_vec(), 1e-4);
    }

    #[test]
    fn grad_of_rms_norm() {
        let gamma = Tensor::from_vec(vec![1.5, 0.5, 2.0], [3]);
        check_grad(
            vec![0.5, -1.0, 2.0, 1.0, 0.3, -0.5],
            &[2, 3],
            |x| {
                let w = Tensor::from_vec(vec![1.0, -2.0, 0.5, 2.0, 1.0, -1.0], [2, 3]);
                (&x.rms_norm(&gamma, 1e-5) * &w).sum_all()
            },
            2e-2,
        );
        let x = Tensor::from_vec(vec![0.5, -1.0, 2.0], [1, 3]);
        let g = Tensor::var_from_vec(vec![1.0, 0.5, 2.0], [3]);
        let w = Tensor::from_vec(vec![1.0, -2.0, 0.5], [1, 3]);
        let grads = (&x.rms_norm(&g, 1e-5) * &w).sum_all().backward();
        let dg = grads.get(&g).unwrap().to_vec();
        let numeric = finite_diff(&g, |g| (&x.rms_norm(g, 1e-5) * &w).sum_all());
        assert_close(&dg, &numeric, 2e-2);
    }

    #[test]
    fn grad_of_embedding() {
        let table = Tensor::var_from_vec(vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6], [3, 2]);
        let out = Tensor::embedding(&table, &[2, 0, 2], &[3]);
        let grads = out.sum_all().backward();
        let dt = grads.get(&table).unwrap().to_vec();
        assert_eq!(dt, vec![1.0, 1.0, 0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn grad_of_cross_entropy() {
        check_grad(
            vec![0.2, -0.3, 0.8, -0.1, 0.4, 0.0],
            &[2, 3],
            |x| x.cross_entropy(&[2, 1]),
            1e-2,
        );
    }

    #[test]
    fn grad_of_rope() {
        check_grad(
            (0..8).map(|i| 0.2 * i as f32 - 0.7).collect(),
            &[1, 1, 2, 4],
            |x| {
                let w = Tensor::from_vec((0..8).map(|i| (i as f32).sin()).collect(), [1, 1, 2, 4]);
                (&x.rope(100.0, 1) * &w).sum_all()
            },
            1e-2,
        );
    }

    #[test]
    fn grad_of_shape_ops() {
        check_grad(
            (0..6).map(|i| i as f32).collect(),
            &[2, 3],
            |x| {
                let w = Tensor::from_vec(vec![1.0, -1.0, 2.0, 0.5, 3.0, -2.0], [3, 2]);
                (&x.t() * &w).sum_all()
            },
            1e-2,
        );
        check_grad(
            (0..6).map(|i| i as f32).collect(),
            &[2, 3],
            |x| x.narrow(1, 1, 2).sum_all(),
            1e-2,
        );
        check_grad(
            (0..6).map(|i| i as f32).collect(),
            &[2, 3],
            |x| x.reshape([3, 2]).sum_all(),
            1e-2,
        );
    }

    #[test]
    fn grad_of_concat() {
        let a = Tensor::var_from_vec(vec![1.0, 2.0], [1, 2]);
        let b = Tensor::var_from_vec(vec![3.0, 4.0], [1, 2]);
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        let grads = (&Tensor::concat(&[a.clone(), b.clone()], 0) * &w)
            .sum_all()
            .backward();
        assert_eq!(grads.get(&a).unwrap().to_vec(), vec![1.0, 2.0]);
        assert_eq!(grads.get(&b).unwrap().to_vec(), vec![3.0, 4.0]);
    }

    #[test]
    fn grad_accumulates_on_reuse() {
        // x used twice: gradients must add.
        let x = Tensor::var_from_vec(vec![2.0], [1]);
        let y = (&(&x * &x) + &x).sum_all(); // d/dx (x^2 + x) = 2x + 1 = 5
        let grads = y.backward();
        assert_eq!(grads.get(&x).unwrap().to_vec(), vec![5.0]);
    }

    #[test]
    fn grad_of_mean() {
        let x = Tensor::var_from_vec(vec![1.0, 2.0, 3.0, 4.0], [4]);
        let grads = x.mean_all().backward();
        assert_eq!(grads.get(&x).unwrap().to_vec(), vec![0.25; 4]);
    }

    #[test]
    fn backward_with_explicit_seed() {
        // The split-learning client resumes backward with a received
        // gradient: y = 2x, seed dL/dy = [3], so dL/dx = [6].
        let x = Tensor::var_from_vec(vec![1.0], [1]);
        let y = x.mul_scalar(2.0);
        let seed = Tensor::from_vec(vec![3.0], [1]);
        let grads = y.backward_with_grad(&seed);
        assert_eq!(grads.get(&x).unwrap().to_vec(), vec![6.0]);
    }

    #[test]
    #[should_panic(expected = "seed gradient shape")]
    fn backward_seed_shape_checked() {
        let x = Tensor::var_from_vec(vec![1.0, 2.0], [2]);
        let y = x.mul_scalar(2.0);
        y.backward_with_grad(&Tensor::ones([3]));
    }

    #[test]
    fn no_grad_blocks_graph() {
        let x = Tensor::var_from_vec(vec![1.0], [1]);
        let y = crate::tensor::no_grad(|| (&x * &x).sum_all());
        let grads = y.backward();
        assert!(grads.is_empty());
    }

    #[test]
    fn detached_branch_gets_no_grad() {
        let x = Tensor::var_from_vec(vec![3.0], [1]);
        let d = x.detach();
        let y = (&x * &d).sum_all(); // treat d as constant: dy/dx = d = 3
        let grads = y.backward();
        assert_eq!(grads.get(&x).unwrap().to_vec(), vec![3.0]);
        assert!(grads.get(&d).is_none());
    }

    #[test]
    fn diamond_graph_gradients() {
        // y = (x + x) * x = 2x^2, dy/dx = 4x.
        let x = Tensor::var_from_vec(vec![1.5], [1]);
        let s = &x + &x;
        let y = (&s * &x).sum_all();
        let grads = y.backward();
        assert_close(&grads.get(&x).unwrap().to_vec(), &[6.0], 1e-5);
    }

    #[test]
    fn grad_store_scale_and_merge() {
        let x = Tensor::var_from_vec(vec![2.0], [1]);
        let mut a = (&x * &x).sum_all().backward(); // dx = 4
        let b = x.sum_all().backward(); // dx = 1
        a.merge(b);
        assert_eq!(a.get(&x).unwrap().to_vec(), vec![5.0]);
        a.scale(0.5);
        assert_eq!(a.get(&x).unwrap().to_vec(), vec![2.5]);
        // Merge of a disjoint store inserts.
        let y = Tensor::var_from_vec(vec![1.0], [1]);
        let c = y.sum_all().backward();
        a.merge(c);
        assert_eq!(a.get(&y).unwrap().to_vec(), vec![1.0]);
    }

    #[test]
    fn grad_store_api() {
        let x = Tensor::var_from_vec(vec![1.0], [1]);
        let mut grads = (&x * &x).sum_all().backward();
        assert!(!grads.is_empty());
        assert!(grads.size_bytes() > 0);
        let g = grads.remove(&x).unwrap();
        assert_eq!(g.to_vec(), vec![2.0]);
        assert!(grads.get(&x).is_none());
    }

    #[test]
    fn only_leaf_gradients_are_kept() {
        let x = Tensor::var_from_vec(vec![1.0, 2.0], [2]);
        let sq = &x * &x;
        let grads = sq.sum_all().backward();
        assert_eq!(grads.len(), 1);
        assert!(grads.get(&sq).is_none());
        assert_eq!(grads.get(&x).unwrap().to_vec(), vec![2.0, 4.0]);
    }

    #[test]
    fn grad_through_overlapping_narrow_bands() {
        // Band gradients (first, middle and later contributions) mixed
        // with a dense one on the same tensor.
        check_grad(
            vec![0.5, -1.0, 2.0, 1.5, -0.5, 0.25],
            &[3, 2],
            |x| {
                let a = x.narrow(0, 0, 2);
                let b = x.narrow(0, 1, 2);
                let c = x.narrow(1, 1, 1);
                let bands = &(&(&a * &a).sum_all() + &b.sum_all()) + &(&c * &c).sum_all();
                &bands + &(x * x).sum_all()
            },
            1e-2,
        );
    }
}
