//! Fully connected layers with manual backpropagation.
//!
//! Weights are row-major (`w[o * in_dim + i]`). Every output `o` of
//! [`Dense::forward`] is computed as `b[o]`, then `+ w[o][i] * x[i]` for `i` in index
//! order, as separate multiplies and adds (no fused multiply-add, which rounds
//! differently). The kernel advances four rows' sums together so the adds of one row
//! do not wait on each other, but each row's own additions keep that order, so an
//! output's bits do not depend on how many rows are computed at once.

use rand::prelude::*;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Activation applied after the affine transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Identity (used for output heads).
    Linear,
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
}

/// A dense (fully connected) layer `y = act(W x + b)`.
///
/// The layer keeps no activations: [`Dense::backward`] takes the input and output of
/// the forward pass it differentiates. Gradients accumulate into `grad_w` / `grad_b`
/// until [`Dense::zero_grad`] is called.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    /// Weight matrix, row-major: `out_dim` rows of `in_dim` weights.
    pub w: Vec<f64>,
    /// Bias vector of length `out_dim`.
    pub b: Vec<f64>,
    /// Accumulated weight gradients.
    pub grad_w: Vec<f64>,
    /// Accumulated bias gradients.
    pub grad_b: Vec<f64>,
    in_dim: usize,
    out_dim: usize,
    activation: Activation,
}

impl Dense {
    /// Create a layer with Xavier/He-style initialization.
    pub fn new(in_dim: usize, out_dim: usize, activation: Activation, rng: &mut StdRng) -> Self {
        let scale = match activation {
            Activation::Relu => (2.0 / in_dim as f64).sqrt(),
            _ => (1.0 / in_dim as f64).sqrt(),
        };
        let w = (0..in_dim * out_dim)
            .map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * scale)
            .collect();
        Dense {
            w,
            b: vec![0.0; out_dim],
            grad_w: vec![0.0; in_dim * out_dim],
            grad_b: vec![0.0; out_dim],
            in_dim,
            out_dim,
            activation,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Forward pass `act(W x + b)`, summing each output in the order the module doc
    /// states.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let n = self.in_dim;
        let x = &x[..n];
        let mut y = self.b.clone();
        if n > 0 {
            let mut rows = self.w.chunks_exact(4 * n);
            let mut sums = y.chunks_exact_mut(4);
            for (w4, s) in (&mut rows).zip(&mut sums) {
                let (w0, rest) = w4.split_at(n);
                let (w1, rest) = rest.split_at(n);
                let (w2, w3) = rest.split_at(n);
                let (mut s0, mut s1, mut s2, mut s3) = (s[0], s[1], s[2], s[3]);
                for ((((&xi, &a), &b), &c), &d) in x.iter().zip(w0).zip(w1).zip(w2).zip(w3) {
                    s0 += a * xi;
                    s1 += b * xi;
                    s2 += c * xi;
                    s3 += d * xi;
                }
                s.copy_from_slice(&[s0, s1, s2, s3]);
            }
            for (row, s) in rows.remainder().chunks_exact(n).zip(sums.into_remainder()) {
                for (&wi, &xi) in row.iter().zip(x) {
                    *s += wi * xi;
                }
            }
        }
        match self.activation {
            Activation::Linear => {}
            Activation::Relu => y.iter_mut().for_each(|v| *v = v.max(0.0)),
            Activation::Tanh => y.iter_mut().for_each(|v| *v = v.tanh()),
        }
        y
    }

    /// Backward pass for one input: `x` is the input and `y` the output of
    /// [`Dense::forward`] on it (the activation's derivative is read off the output),
    /// and `grad_out` is `dL/dy`. Accumulates the parameter gradients and, when `dx` is
    /// given, adds `dL/dx` into it, row by row in output order.
    ///
    /// A row whose gradient `dL/d(W x + b)` is exactly zero is skipped: a ReLU unit that
    /// did not fire, or a logit masked to probability `0.0`. Its products are all zeros,
    /// so skipping them can only change the sign of a gradient that is zero.
    pub fn backward(&mut self, x: &[f64], y: &[f64], grad_out: &[f64], mut dx: Option<&mut [f64]>) {
        let n = self.in_dim;
        let x = &x[..n];
        for o in 0..self.out_dim {
            let d = match self.activation {
                Activation::Linear => 1.0,
                Activation::Relu => {
                    if y[o] > 0.0 {
                        1.0
                    } else {
                        0.0
                    }
                }
                Activation::Tanh => 1.0 - y[o] * y[o],
            };
            let dpre = grad_out[o] * d;
            if dpre == 0.0 {
                continue;
            }
            self.grad_b[o] += dpre;
            let row = o * n..(o + 1) * n;
            for (g, &xi) in self.grad_w[row.clone()].iter_mut().zip(x) {
                *g += dpre * xi;
            }
            if let Some(dx) = dx.as_deref_mut() {
                for (d, &wi) in dx.iter_mut().zip(&self.w[row]) {
                    *d += dpre * wi;
                }
            }
        }
    }

    /// Reset accumulated gradients to zero.
    pub fn zero_grad(&mut self) {
        self.grad_w.fill(0.0);
        self.grad_b.fill(0.0);
    }

    /// The `(weights, weight gradients)` and `(biases, bias gradients)` slices, in the
    /// order [`Dense::visit_params`] visits them.
    pub fn param_slices(&mut self) -> [(&mut [f64], &[f64]); 2] {
        [(&mut self.w, &self.grad_w), (&mut self.b, &self.grad_b)]
    }

    /// Visit `(param, grad)` pairs mutably in a fixed order: every weight, then every
    /// bias.
    pub fn visit_params(&mut self, mut f: impl FnMut(&mut f64, f64)) {
        for (params, grads) in self.param_slices() {
            for (p, g) in params.iter_mut().zip(grads) {
                f(p, *g);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn forward_shapes_and_determinism() {
        let mut r = rng();
        let layer = Dense::new(3, 2, Activation::Linear, &mut r);
        let y1 = layer.forward(&[1.0, 2.0, 3.0]);
        let y2 = layer.forward(&[1.0, 2.0, 3.0]);
        assert_eq!(y1.len(), 2);
        assert_eq!(y1, y2);
        assert_eq!(layer.num_params(), 8);
        // A block of four rows plus a remainder of two: each output is its bias plus
        // the products in input order, to the bit.
        let mut layer = Dense::new(3, 6, Activation::Linear, &mut r);
        layer.b = vec![0.5, -0.25, 1.0, 0.0, -2.0, 3.0];
        let x = [0.3, -1.7, 2.9];
        let y = layer.forward(&x);
        for (o, (w, b)) in layer.w.chunks(3).zip(&layer.b).enumerate() {
            let want = b + w[0] * x[0] + w[1] * x[1] + w[2] * x[2];
            assert_eq!(y[o].to_bits(), want.to_bits(), "output {o}");
        }
    }

    #[test]
    fn relu_and_tanh_activations() {
        let mut r = rng();
        let mut relu = Dense::new(1, 1, Activation::Relu, &mut r);
        relu.w = vec![1.0];
        relu.b = vec![-5.0];
        assert_eq!(relu.forward(&[1.0]), vec![0.0]);
        assert_eq!(relu.forward(&[10.0]), vec![5.0]);

        let mut tanh = Dense::new(1, 1, Activation::Tanh, &mut r);
        tanh.w = vec![1.0];
        tanh.b = vec![0.0];
        let y = tanh.forward(&[100.0]);
        assert!((y[0] - 1.0).abs() < 1e-6);
    }

    /// Numerical gradient check: analytic gradients from backward() match finite
    /// differences of a scalar loss.
    #[test]
    fn gradient_check() {
        let mut r = rng();
        let mut layer = Dense::new(4, 3, Activation::Tanh, &mut r);
        let x = vec![0.3, -0.7, 0.2, 0.9];
        // Loss = sum(y * coeff)
        let coeff = [0.5, -1.0, 2.0];
        let loss = |layer: &Dense, x: &[f64]| -> f64 {
            layer
                .forward(x)
                .iter()
                .zip(coeff.iter())
                .map(|(y, c)| y * c)
                .sum()
        };

        layer.zero_grad();
        let y = layer.forward(&x);
        let mut dx = vec![0.0; x.len()];
        layer.backward(&x, &y, &coeff, Some(&mut dx));

        let eps = 1e-6;
        // Check a sample of weight gradients.
        for &idx in &[0usize, 5, 11] {
            let orig = layer.w[idx];
            layer.w[idx] = orig + eps;
            let lp = loss(&layer, &x);
            layer.w[idx] = orig - eps;
            let lm = loss(&layer, &x);
            layer.w[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - layer.grad_w[idx]).abs() < 1e-5,
                "w[{idx}]: numeric {numeric} vs analytic {}",
                layer.grad_w[idx]
            );
        }
        // Check input gradients.
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp[i] += eps;
            let lp = loss(&layer, &xp);
            xp[i] -= 2.0 * eps;
            let lm = loss(&layer, &xp);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - dx[i]).abs() < 1e-5, "x[{i}]");
        }
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut r = rng();
        let mut layer = Dense::new(2, 1, Activation::Linear, &mut r);
        let x = [1.0, 1.0];
        let y = layer.forward(&x);
        layer.backward(&x, &y, &[1.0], None);
        let g1 = layer.grad_b[0];
        layer.backward(&x, &y, &[1.0], None);
        assert!((layer.grad_b[0] - 2.0 * g1).abs() < 1e-12);
        layer.zero_grad();
        assert_eq!(layer.grad_b[0], 0.0);
    }

    #[test]
    fn visit_params_touches_every_parameter() {
        let mut r = rng();
        let mut layer = Dense::new(3, 2, Activation::Linear, &mut r);
        let mut count = 0;
        layer.visit_params(|_, _| count += 1);
        assert_eq!(count, layer.num_params());
    }
}
