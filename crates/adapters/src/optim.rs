//! Optimizers over adapter parameters.
//!
//! Only adapter parameters train in adapter-based fine-tuning, so
//! optimizer state (the `O` component of the paper's memory model) is
//! proportional to `A`, not to the base model.

use menos_tensor::{CheckpointError, GradStore, Tensor};

/// Shared interface for the optimizers used in the experiments.
pub trait Optimizer: Send {
    /// Applies one update step from `grads` to the managed parameters
    /// (in place; the autograd graph is not touched).
    fn step(&mut self, grads: &GradStore);

    /// The managed parameters.
    fn params(&self) -> &[Tensor];

    /// Bytes of optimizer state (momentum/moment buffers), excluding
    /// the parameters themselves.
    fn state_bytes(&self) -> u64;

    /// Overrides the learning rate (driven by an
    /// [`crate::LrSchedule`] between steps).
    fn set_lr(&mut self, lr: f32);

    /// Captures the full mutable state (hyper-parameters, step count,
    /// moment buffers) for a durable snapshot.
    fn to_state(&self) -> OptimState;

    /// Restores state captured by [`to_state`](Self::to_state) into
    /// this optimizer, resuming bit-identically.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Corrupt`] if the state is for a different
    /// optimizer kind or its buffers do not match the managed
    /// parameters.
    fn restore_state(&mut self, state: OptimState) -> Result<(), CheckpointError>;
}

/// Serializable snapshot of an optimizer's mutable state.
///
/// Paired with the parameter values themselves (a [`ParamStore`]
/// checkpoint), this is everything needed to resume training
/// bit-identically after a process restart.
///
/// [`ParamStore`]: menos_tensor::ParamStore
#[derive(Debug, Clone, PartialEq)]
pub enum OptimState {
    /// [`Sgd`] state: hyper-parameters plus per-parameter velocity
    /// buffers (empty when momentum is zero).
    Sgd {
        /// Learning rate at snapshot time.
        lr: f32,
        /// Momentum coefficient.
        momentum: f32,
        /// Per-parameter velocity buffers.
        velocity: Vec<Vec<f32>>,
    },
    /// [`Adam`] state: hyper-parameters, the bias-correction step
    /// count, and both moment buffers.
    Adam {
        /// Learning rate at snapshot time.
        lr: f32,
        /// First-moment decay.
        beta1: f32,
        /// Second-moment decay.
        beta2: f32,
        /// Denominator stabilizer.
        eps: f32,
        /// Steps taken (drives bias correction).
        t: u64,
        /// Per-parameter first moments.
        m: Vec<Vec<f32>>,
        /// Per-parameter second moments.
        v: Vec<Vec<f32>>,
    },
}

const OPTIM_KIND_SGD: u8 = 0;
const OPTIM_KIND_ADAM: u8 = 1;
const MAX_OPTIM_BUFFERS: u64 = 1 << 16;
const MAX_OPTIM_BUFFER_LEN: u64 = 1 << 32;

struct OptimCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> OptimCursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).ok_or(CheckpointError::Truncated)?;
        let s = self
            .buf
            .get(self.pos..end)
            .ok_or(CheckpointError::Truncated)?;
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }
    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    fn f32(&mut self) -> Result<f32, CheckpointError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn buffers(&mut self) -> Result<Vec<Vec<f32>>, CheckpointError> {
        let n = self.u64()?;
        if n > MAX_OPTIM_BUFFERS {
            return Err(CheckpointError::Corrupt(format!("{n} optimizer buffers")));
        }
        let mut bufs = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let len = self.u64()?;
            if len > MAX_OPTIM_BUFFER_LEN {
                return Err(CheckpointError::Corrupt(format!(
                    "optimizer buffer of {len} elements"
                )));
            }
            let mut data = Vec::with_capacity(len as usize);
            for _ in 0..len {
                data.push(self.f32()?);
            }
            bufs.push(data);
        }
        Ok(bufs)
    }
    fn finish(&self) -> Result<(), CheckpointError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(CheckpointError::Corrupt(format!(
                "{} trailing bytes in optimizer state",
                self.buf.len() - self.pos
            )))
        }
    }
}

fn write_buffers(out: &mut Vec<u8>, bufs: &[Vec<f32>]) {
    out.extend((bufs.len() as u64).to_le_bytes());
    for b in bufs {
        out.extend((b.len() as u64).to_le_bytes());
        for &x in b {
            out.extend(x.to_le_bytes());
        }
    }
}

impl OptimState {
    /// Human-readable kind tag (for mismatch diagnostics).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            OptimState::Sgd { .. } => "sgd",
            OptimState::Adam { .. } => "adam",
        }
    }

    /// Serializes to the little-endian byte form embedded in session
    /// snapshots: `kind (u8)` then kind-specific hyper-parameters and
    /// length-prefixed moment buffers.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            OptimState::Sgd {
                lr,
                momentum,
                velocity,
            } => {
                out.push(OPTIM_KIND_SGD);
                out.extend(lr.to_le_bytes());
                out.extend(momentum.to_le_bytes());
                write_buffers(&mut out, velocity);
            }
            OptimState::Adam {
                lr,
                beta1,
                beta2,
                eps,
                t,
                m,
                v,
            } => {
                out.push(OPTIM_KIND_ADAM);
                out.extend(lr.to_le_bytes());
                out.extend(beta1.to_le_bytes());
                out.extend(beta2.to_le_bytes());
                out.extend(eps.to_le_bytes());
                out.extend(t.to_le_bytes());
                write_buffers(&mut out, m);
                write_buffers(&mut out, v);
            }
        }
        out
    }

    /// Decodes bytes written by [`to_bytes`](Self::to_bytes),
    /// length-validated and rejecting trailing garbage.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on truncation, an unknown kind tag, or
    /// implausible buffer counts/lengths — never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<OptimState, CheckpointError> {
        let mut c = OptimCursor { buf: bytes, pos: 0 };
        let state = match c.u8()? {
            OPTIM_KIND_SGD => OptimState::Sgd {
                lr: c.f32()?,
                momentum: c.f32()?,
                velocity: c.buffers()?,
            },
            OPTIM_KIND_ADAM => OptimState::Adam {
                lr: c.f32()?,
                beta1: c.f32()?,
                beta2: c.f32()?,
                eps: c.f32()?,
                t: c.u64()?,
                m: c.buffers()?,
                v: c.buffers()?,
            },
            k => return Err(CheckpointError::Corrupt(format!("optimizer kind {k}"))),
        };
        c.finish()?;
        Ok(state)
    }
}

/// Validates that `bufs` line up one-to-one with `params` element
/// counts (the shape contract between a snapshot and the live
/// optimizer it restores into).
fn check_buffers(what: &str, bufs: &[Vec<f32>], params: &[Tensor]) -> Result<(), CheckpointError> {
    if bufs.len() != params.len() {
        return Err(CheckpointError::Corrupt(format!(
            "{what}: {} buffers for {} parameters",
            bufs.len(),
            params.len()
        )));
    }
    for (i, (b, p)) in bufs.iter().zip(params).enumerate() {
        if b.len() != p.elem_count() {
            return Err(CheckpointError::Corrupt(format!(
                "{what}: buffer {i} has {} elements, parameter has {}",
                b.len(),
                p.elem_count()
            )));
        }
    }
    Ok(())
}

/// Stochastic gradient descent with optional momentum.
#[derive(Debug)]
pub struct Sgd {
    params: Vec<Tensor>,
    lr: f32,
    momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates an SGD optimizer over `params`.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive or `momentum` is outside
    /// `[0, 1)`.
    pub fn new(params: Vec<Tensor>, lr: f32, momentum: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0, 1)");
        let velocity = if momentum > 0.0 {
            params.iter().map(|p| vec![0.0; p.elem_count()]).collect()
        } else {
            Vec::new()
        };
        Sgd {
            params,
            lr,
            momentum,
            velocity,
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, grads: &GradStore) {
        for (i, p) in self.params.iter().enumerate() {
            let Some(g) = grads.get(p) else { continue };
            let g = g.to_vec();
            let mut w = p.storage().write();
            if self.momentum > 0.0 {
                let v = &mut self.velocity[i];
                for j in 0..w.len() {
                    v[j] = self.momentum * v[j] + g[j];
                    w[j] -= self.lr * v[j];
                }
            } else {
                for j in 0..w.len() {
                    w[j] -= self.lr * g[j];
                }
            }
        }
    }

    fn params(&self) -> &[Tensor] {
        &self.params
    }

    fn state_bytes(&self) -> u64 {
        self.velocity.iter().map(|v| v.len() as u64 * 4).sum()
    }

    fn set_lr(&mut self, lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }

    fn to_state(&self) -> OptimState {
        OptimState::Sgd {
            lr: self.lr,
            momentum: self.momentum,
            velocity: self.velocity.clone(),
        }
    }

    fn restore_state(&mut self, state: OptimState) -> Result<(), CheckpointError> {
        let OptimState::Sgd {
            lr,
            momentum,
            velocity,
        } = state
        else {
            return Err(CheckpointError::Corrupt(format!(
                "restoring {} state into sgd",
                state.kind()
            )));
        };
        if !lr.is_finite() || lr <= 0.0 || !(0.0..1.0).contains(&momentum) {
            return Err(CheckpointError::Corrupt(format!(
                "sgd hyper-parameters lr={lr} momentum={momentum}"
            )));
        }
        if momentum > 0.0 {
            check_buffers("sgd velocity", &velocity, &self.params)?;
        } else if !velocity.is_empty() {
            return Err(CheckpointError::Corrupt(
                "sgd velocity present with zero momentum".into(),
            ));
        }
        self.lr = lr;
        self.momentum = momentum;
        self.velocity = velocity;
        Ok(())
    }
}

/// Rescales all gradients in `grads` for `params` so their global L2
/// norm does not exceed `max_norm`, returning the pre-clip norm — the
/// standard stabilizer for LLM fine-tuning.
///
/// # Panics
///
/// Panics if `max_norm` is not positive.
///
/// # Examples
///
/// ```
/// use menos_adapters::clip_grad_norm;
/// use menos_tensor::Tensor;
///
/// let w = Tensor::var_from_vec(vec![3.0, 4.0], [2]);
/// let mut grads = (&w * &w).sum_all().backward(); // grad (6, 8), norm 10
/// let norm = clip_grad_norm(&mut grads, &[w.clone()], 1.0);
/// assert!((norm - 10.0).abs() < 1e-5);
/// let g = grads.get(&w).unwrap().to_vec();
/// assert!((g[0] - 0.6).abs() < 1e-5 && (g[1] - 0.8).abs() < 1e-5);
/// ```
pub fn clip_grad_norm(grads: &mut GradStore, params: &[Tensor], max_norm: f32) -> f32 {
    assert!(max_norm > 0.0, "max_norm must be positive");
    let mut sum_sq = 0.0f64;
    for p in params {
        if let Some(g) = grads.get(p) {
            for v in g.storage().read().iter() {
                sum_sq += f64::from(*v) * f64::from(*v);
            }
        }
    }
    let norm = (sum_sq as f32).sqrt();
    if norm > max_norm {
        grads.scale(max_norm / norm);
    }
    norm
}

/// Adam with bias correction — the paper's fine-tuning optimizer.
#[derive(Debug)]
pub struct Adam {
    params: Vec<Tensor>,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u64,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates an Adam optimizer with the standard betas (0.9, 0.999).
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive.
    pub fn new(params: Vec<Tensor>, lr: f32) -> Self {
        Adam::with_betas(params, lr, 0.9, 0.999, 1e-8)
    }

    /// Creates an Adam optimizer with explicit hyper-parameters.
    ///
    /// # Panics
    ///
    /// Panics if `lr` is not positive or a beta is outside `[0, 1)`.
    pub fn with_betas(params: Vec<Tensor>, lr: f32, beta1: f32, beta2: f32, eps: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!((0.0..1.0).contains(&beta1) && (0.0..1.0).contains(&beta2));
        let m = params.iter().map(|p| vec![0.0; p.elem_count()]).collect();
        let v = params.iter().map(|p| vec![0.0; p.elem_count()]).collect();
        Adam {
            params,
            lr,
            beta1,
            beta2,
            eps,
            t: 0,
            m,
            v,
        }
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.t
    }
}

impl Optimizer for Adam {
    fn step(&mut self, grads: &GradStore) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (i, p) in self.params.iter().enumerate() {
            let Some(g) = grads.get(p) else { continue };
            let g = g.to_vec();
            let mut w = p.storage().write();
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for j in 0..w.len() {
                m[j] = self.beta1 * m[j] + (1.0 - self.beta1) * g[j];
                v[j] = self.beta2 * v[j] + (1.0 - self.beta2) * g[j] * g[j];
                let mhat = m[j] / bc1;
                let vhat = v[j] / bc2;
                w[j] -= self.lr * mhat / (vhat.sqrt() + self.eps);
            }
        }
    }

    fn params(&self) -> &[Tensor] {
        &self.params
    }

    fn state_bytes(&self) -> u64 {
        // Two moment buffers, 4 bytes per element each.
        self.m
            .iter()
            .zip(self.v.iter())
            .map(|(m, v)| (m.len() + v.len()) as u64 * 4)
            .sum()
    }

    fn set_lr(&mut self, lr: f32) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }

    fn to_state(&self) -> OptimState {
        OptimState::Adam {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    fn restore_state(&mut self, state: OptimState) -> Result<(), CheckpointError> {
        let OptimState::Adam {
            lr,
            beta1,
            beta2,
            eps,
            t,
            m,
            v,
        } = state
        else {
            return Err(CheckpointError::Corrupt(format!(
                "restoring {} state into adam",
                state.kind()
            )));
        };
        if !lr.is_finite()
            || lr <= 0.0
            || !(0.0..1.0).contains(&beta1)
            || !(0.0..1.0).contains(&beta2)
        {
            return Err(CheckpointError::Corrupt(format!(
                "adam hyper-parameters lr={lr} beta1={beta1} beta2={beta2}"
            )));
        }
        check_buffers("adam m", &m, &self.params)?;
        check_buffers("adam v", &v, &self.params)?;
        self.lr = lr;
        self.beta1 = beta1;
        self.beta2 = beta2;
        self.eps = eps;
        self.t = t;
        self.m = m;
        self.v = v;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes `(w - 3)^2` and returns the final weight.
    fn optimize(mut opt: impl Optimizer, steps: usize) -> f32 {
        let w = opt.params()[0].clone();
        for _ in 0..steps {
            let loss = (&w.add_scalar(-3.0) * &w.add_scalar(-3.0)).sum_all();
            let grads = loss.backward();
            opt.step(&grads);
        }
        w.to_vec()[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let w = Tensor::var_from_vec(vec![0.0], [1]);
        let end = optimize(Sgd::new(vec![w], 0.1, 0.0), 50);
        assert!((end - 3.0).abs() < 1e-3, "w = {end}");
    }

    #[test]
    fn sgd_momentum_converges() {
        let w = Tensor::var_from_vec(vec![0.0], [1]);
        let end = optimize(Sgd::new(vec![w], 0.05, 0.9), 100);
        assert!((end - 3.0).abs() < 0.1, "w = {end}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let w = Tensor::var_from_vec(vec![0.0], [1]);
        let end = optimize(Adam::new(vec![w], 0.3), 100);
        assert!((end - 3.0).abs() < 0.05, "w = {end}");
    }

    #[test]
    fn optimizer_ignores_params_without_grads() {
        let w = Tensor::var_from_vec(vec![1.0], [1]);
        let unused = Tensor::var_from_vec(vec![5.0], [1]);
        let mut opt = Sgd::new(vec![w.clone(), unused.clone()], 0.1, 0.0);
        let loss = (&w * &w).sum_all();
        opt.step(&loss.backward());
        assert_eq!(unused.to_vec(), vec![5.0]);
        assert!(w.to_vec()[0] < 1.0);
    }

    #[test]
    fn state_bytes_accounting() {
        let params = vec![Tensor::var_from_vec(vec![0.0; 10], [10])];
        assert_eq!(Sgd::new(params.clone(), 0.1, 0.0).state_bytes(), 0);
        assert_eq!(Sgd::new(params.clone(), 0.1, 0.5).state_bytes(), 40);
        // Adam: m and v, 2 * 10 * 4 bytes.
        assert_eq!(Adam::new(params, 0.1).state_bytes(), 80);
    }

    #[test]
    fn adam_counts_steps() {
        let w = Tensor::var_from_vec(vec![0.0], [1]);
        let mut opt = Adam::new(vec![w.clone()], 0.1);
        assert_eq!(opt.steps(), 0);
        let loss = (&w * &w).sum_all();
        opt.step(&loss.backward());
        assert_eq!(opt.steps(), 1);
    }

    #[test]
    fn updates_propagate_through_shared_storage() {
        // The optimizer updates the storage in place, so every aliased
        // view of the parameter observes the new value — required for
        // adapters bound into a model structure.
        let w = Tensor::var_from_vec(vec![1.0], [1]);
        let alias = w.detach();
        let mut opt = Sgd::new(vec![w.clone()], 0.5, 0.0);
        let loss = (&w * &w).sum_all();
        opt.step(&loss.backward());
        assert_eq!(alias.to_vec(), w.to_vec());
        assert!(alias.to_vec()[0] < 1.0);
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn bad_lr_rejected() {
        Sgd::new(vec![], 0.0, 0.0);
    }

    #[test]
    fn clip_grad_norm_caps_and_reports() {
        let w = Tensor::var_from_vec(vec![3.0, 4.0], [2]);
        let mut grads = (&w * &w).sum_all().backward(); // (6, 8), norm 10
        let norm = clip_grad_norm(&mut grads, std::slice::from_ref(&w), 5.0);
        assert!((norm - 10.0).abs() < 1e-4);
        let g = grads.get(&w).unwrap().to_vec();
        let clipped = (g[0] * g[0] + g[1] * g[1]).sqrt();
        assert!((clipped - 5.0).abs() < 1e-4);
        // Already-small grads are untouched.
        let mut grads = (&w * &w).sum_all().backward();
        clip_grad_norm(&mut grads, std::slice::from_ref(&w), 100.0);
        assert_eq!(grads.get(&w).unwrap().to_vec(), vec![6.0, 8.0]);
    }

    /// Runs `steps` identical quadratic-loss steps against `opt`.
    fn drive(opt: &mut dyn Optimizer, w: &Tensor, steps: usize) {
        for _ in 0..steps {
            let loss = (&w.add_scalar(-3.0) * &w.add_scalar(-3.0)).sum_all();
            opt.step(&loss.backward());
        }
    }

    /// Snapshot mid-run, restore into a fresh optimizer over a copied
    /// parameter, continue both — trajectories must match bit-for-bit.
    fn assert_resumes_bit_identically(
        make: impl Fn(Vec<Tensor>) -> Box<dyn Optimizer>,
        total: usize,
        cut: usize,
    ) {
        let w = Tensor::var_from_vec(vec![0.25, -1.5], [2]);
        let mut opt = make(vec![w.clone()]);
        drive(opt.as_mut(), &w, cut);

        let state_bytes = opt.to_state().to_bytes();
        let w2 = Tensor::var_from_vec(w.to_vec(), [2]);
        let mut resumed = make(vec![w2.clone()]);
        resumed
            .restore_state(OptimState::from_bytes(&state_bytes).unwrap())
            .unwrap();

        drive(opt.as_mut(), &w, total - cut);
        drive(resumed.as_mut(), &w2, total - cut);
        let bits = |t: &Tensor| t.to_vec().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&w), bits(&w2), "restored run diverged");
        assert_eq!(opt.to_state(), resumed.to_state(), "state diverged");
    }

    #[test]
    fn sgd_state_round_trips_and_resumes_bit_identically() {
        assert_resumes_bit_identically(|p| Box::new(Sgd::new(p, 0.05, 0.9)), 20, 7);
        assert_resumes_bit_identically(|p| Box::new(Sgd::new(p, 0.1, 0.0)), 10, 3);
    }

    #[test]
    fn adam_state_round_trips_and_resumes_bit_identically() {
        // The cut lands mid-bias-correction: `t` must be restored or
        // the continuation diverges immediately.
        assert_resumes_bit_identically(|p| Box::new(Adam::new(p, 0.3)), 20, 5);
    }

    #[test]
    fn optim_state_rejects_kind_mismatch_and_bad_buffers() {
        let w = Tensor::var_from_vec(vec![0.0; 4], [4]);
        let mut sgd = Sgd::new(vec![w.clone()], 0.1, 0.9);
        let mut adam = Adam::new(vec![w.clone()], 0.1);

        // Kind crossover both ways.
        assert!(sgd.restore_state(adam.to_state()).is_err());
        assert!(adam.restore_state(sgd.to_state()).is_err());

        // Velocity buffer sized for a different parameter.
        let bad = OptimState::Sgd {
            lr: 0.1,
            momentum: 0.9,
            velocity: vec![vec![0.0; 3]],
        };
        assert!(sgd.restore_state(bad).is_err());

        // Moment buffer count mismatch.
        let bad = OptimState::Adam {
            lr: 0.1,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 1,
            m: vec![vec![0.0; 4], vec![0.0; 4]],
            v: vec![vec![0.0; 4]],
        };
        assert!(adam.restore_state(bad).is_err());

        // Hyper-parameters outside the constructor's contract.
        let bad = OptimState::Sgd {
            lr: -1.0,
            momentum: 0.0,
            velocity: vec![],
        };
        assert!(sgd.restore_state(bad).is_err());
    }

    #[test]
    fn optim_state_decode_rejects_corruption() {
        let w = Tensor::var_from_vec(vec![0.0; 4], [4]);
        let bytes = Adam::new(vec![w], 0.1).to_state().to_bytes();
        for cut in 0..bytes.len() {
            assert!(OptimState::from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
        // Unknown kind tag.
        let mut bad = bytes.clone();
        bad[0] = 7;
        assert!(OptimState::from_bytes(&bad).is_err());
        // Trailing garbage.
        let mut grown = bytes.clone();
        grown.push(0);
        assert!(OptimState::from_bytes(&grown).is_err());
        // Implausible buffer count.
        let mut sgd_bytes = OptimState::Sgd {
            lr: 0.1,
            momentum: 0.0,
            velocity: vec![],
        }
        .to_bytes();
        let n = sgd_bytes.len();
        sgd_bytes[n - 8..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(OptimState::from_bytes(&sgd_bytes).is_err());
    }

    #[test]
    fn set_lr_changes_step_size() {
        let w = Tensor::var_from_vec(vec![0.0], [1]);
        let mut opt = Sgd::new(vec![w.clone()], 0.1, 0.0);
        let grads = w.sum_all().backward(); // dw = 1
        opt.step(&grads);
        assert!((w.to_vec()[0] + 0.1).abs() < 1e-6);
        opt.set_lr(0.5);
        opt.step(&grads);
        assert!((w.to_vec()[0] + 0.6).abs() < 1e-6);
    }
}
