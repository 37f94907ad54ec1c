//! The Adam optimizer (Kingma & Ba), operating over parameter slices given in a fixed
//! order, such as [`crate::network::MultiHeadNet::param_slices`].

use serde::{Deserialize, Serialize};

/// Adam optimizer state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical stability constant.
    pub eps: f64,
    /// Bound of the elementwise gradient clamp: each gradient is clamped to
    /// `[-grad_clip, grad_clip]` on its own, not scaled by a norm (0 disables it).
    pub grad_clip: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// Create an optimizer with the given learning rate and default hyperparameters.
    pub fn new(lr: f64) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            grad_clip: 5.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Number of update steps performed so far.
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Perform one update step. `params` yields `(parameters, gradients)` slice pairs of
    /// equal length, in the same order every step; the parameter at flat position `k` of
    /// that sequence keeps its moment estimates at index `k`. Each gradient is multiplied
    /// by `grad_scale` before clamping.
    pub fn step<'a>(
        &mut self,
        params: impl IntoIterator<Item = (&'a mut [f64], &'a [f64])>,
        grad_scale: f64,
    ) {
        self.t += 1;
        let t = self.t as f64;
        let lr_t = self.lr * (1.0 - self.beta2.powf(t)).sqrt() / (1.0 - self.beta1.powf(t));
        let (beta1, beta2, eps, clip) = (self.beta1, self.beta2, self.eps, self.grad_clip);
        let mut start = 0;
        for (params, grads) in params {
            debug_assert_eq!(params.len(), grads.len());
            let end = start + params.len();
            if self.m.len() < end {
                self.m.resize(end, 0.0);
                self.v.resize(end, 0.0);
            }
            let moments = self.m[start..end].iter_mut().zip(&mut self.v[start..end]);
            for ((p, &grad), (m, v)) in params.iter_mut().zip(grads).zip(moments) {
                let grad = grad * grad_scale;
                let g = if clip > 0.0 {
                    grad.clamp(-clip, clip)
                } else {
                    grad
                };
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                *p -= lr_t * *m / (v.sqrt() + eps);
            }
            start = end;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adam minimizes a simple quadratic.
    #[test]
    fn minimizes_quadratic() {
        let mut params = vec![5.0, -3.0];
        let mut opt = Adam::new(0.1);
        for _ in 0..500 {
            let grads: Vec<f64> = params.iter().map(|p| 2.0 * p).collect();
            opt.step([(&mut params[..], &grads[..])], 1.0);
        }
        assert!(params.iter().all(|p| p.abs() < 1e-2), "{params:?}");
        assert_eq!(opt.steps(), 500);
    }

    #[test]
    fn gradient_clipping_bounds_updates() {
        let mut param = [0.0];
        let mut opt = Adam::new(0.1);
        opt.grad_clip = 1.0;
        opt.step([(&mut param[..], &[1e9][..])], 1.0);
        // First Adam step size is ~lr regardless, but must be finite and small.
        assert!(param[0].abs() < 0.2);
        assert!(param[0].is_finite());
    }

    #[test]
    fn state_grows_with_parameters() {
        let mut a = [1.0];
        let mut b = [2.0, 3.0];
        let mut opt = Adam::new(0.01);
        opt.step(
            [(&mut a[..], &[0.1][..]), (&mut b[..], &[-0.1, -0.1][..])],
            1.0,
        );
        assert_eq!(opt.m.len(), 3);
        assert_eq!(opt.v.len(), 3);
        // Each parameter keeps its own moments: `a` moved against its gradient, `b`
        // against theirs.
        assert!(opt.m[0] > 0.0 && opt.m[1] < 0.0 && opt.m[2] < 0.0);
        assert!(a[0] < 1.0 && b[0] > 2.0 && b[1] > 3.0);
    }
}
