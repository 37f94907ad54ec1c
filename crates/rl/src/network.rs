//! [`MultiHeadNet`] — the ATENA/LINX policy-network architecture (paper Fig. 2).
//!
//! A shared MLP trunk (dense + ReLU layers) reads the state observation; independent
//! linear *heads* produce the logits of each softmax segment (operation type, filter
//! attribute, filter operator, filter term, group-by column, aggregation function,
//! aggregated column, and — for LINX — the snippet segment); a scalar value head
//! provides the baseline for advantage actor-critic updates.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::dense::{Activation, Dense};

/// Configuration of a [`MultiHeadNet`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Observation (input) dimension.
    pub input_dim: usize,
    /// Hidden-layer widths of the shared trunk.
    pub hidden: Vec<usize>,
    /// Output heads: `(name, number of choices)`.
    pub heads: Vec<(String, usize)>,
}

impl NetworkConfig {
    /// A small default trunk (two hidden layers of 64), matching the scale ATENA uses.
    pub fn with_default_trunk(input_dim: usize, heads: Vec<(String, usize)>) -> Self {
        NetworkConfig {
            input_dim,
            hidden: vec![64, 64],
            heads,
        }
    }
}

/// Result of a forward pass.
#[derive(Debug, Clone)]
pub struct ForwardResult {
    /// Logits per head (same order as the configuration).
    pub head_logits: Vec<Vec<f64>>,
    /// State-value estimate.
    pub value: f64,
    /// The observation, then each trunk layer's output: what [`MultiHeadNet::backward`]
    /// differentiates.
    trunk: Vec<Vec<f64>>,
}

/// The multi-softmax-head policy/value network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiHeadNet {
    trunk: Vec<Dense>,
    heads: Vec<Dense>,
    value_head: Dense,
    head_names: Vec<String>,
    input_dim: usize,
}

impl MultiHeadNet {
    /// Create a network with seeded initialization.
    pub fn new(config: &NetworkConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut trunk = Vec::new();
        let mut in_dim = config.input_dim;
        for &h in &config.hidden {
            trunk.push(Dense::new(in_dim, h, Activation::Relu, &mut rng));
            in_dim = h;
        }
        let heads: Vec<Dense> = config
            .heads
            .iter()
            .map(|(_, size)| Dense::new(in_dim, *size, Activation::Linear, &mut rng))
            .collect();
        let value_head = Dense::new(in_dim, 1, Activation::Linear, &mut rng);
        MultiHeadNet {
            trunk,
            heads,
            value_head,
            head_names: config.heads.iter().map(|(n, _)| n.clone()).collect(),
            input_dim: config.input_dim,
        }
    }

    /// Observation dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Head names in order.
    pub fn head_names(&self) -> &[String] {
        &self.head_names
    }

    /// Number of heads.
    pub fn num_heads(&self) -> usize {
        self.heads.len()
    }

    /// The index of a head by name.
    pub fn head_index(&self, name: &str) -> Option<usize> {
        self.head_names.iter().position(|n| n == name)
    }

    /// The number of choices of a head.
    pub fn head_size(&self, head: usize) -> usize {
        self.heads[head].out_dim()
    }

    /// Total number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.trunk.iter().map(Dense::num_params).sum::<usize>()
            + self.heads.iter().map(Dense::num_params).sum::<usize>()
            + self.value_head.num_params()
    }

    /// Forward pass. The result keeps the trunk's activations, so
    /// [`MultiHeadNet::backward`] can differentiate this pass without running it again.
    pub fn forward(&self, obs: &[f64]) -> ForwardResult {
        let mut trunk = Vec::with_capacity(self.trunk.len() + 1);
        trunk.push(obs.to_vec());
        for layer in &self.trunk {
            let y = layer.forward(trunk.last().expect("holds the observation"));
            trunk.push(y);
        }
        let features = trunk.last().expect("holds the observation");
        let head_logits = self.heads.iter().map(|h| h.forward(features)).collect();
        let value = self.value_head.forward(features)[0];
        ForwardResult {
            head_logits,
            value,
            trunk,
        }
    }

    /// Forward pass for acting on the result: the same pass as [`MultiHeadNet::forward`].
    pub fn forward_inference(&self, obs: &[f64]) -> ForwardResult {
        self.forward(obs)
    }

    /// Backward pass over `fwd`, a [`MultiHeadNet::forward`] of this network with its
    /// current weights. `head_grads[i]` is `dL/dlogits` for head `i` (None if the head
    /// was not used at this step); `value_grad` is `dL/dvalue`. Gradients accumulate in
    /// the layers until [`MultiHeadNet::zero_grad`].
    ///
    /// The trunk's gradient is the sum of each used head's input gradient in head order,
    /// then the value head's; each of those is computed on its own from zero first.
    pub fn backward(
        &mut self,
        fwd: &ForwardResult,
        head_grads: &[Option<Vec<f64>>],
        value_grad: f64,
    ) {
        debug_assert_eq!(head_grads.len(), self.heads.len());
        let features = fwd.trunk.last().expect("holds the observation");
        let mut dtrunk = vec![0.0; features.len()];
        let mut dx = vec![0.0; features.len()];
        let mut add_input_grad = |layer: &mut Dense, y: &[f64], grad: &[f64]| {
            dx.fill(0.0);
            layer.backward(features, y, grad, Some(&mut dx));
            for (a, b) in dtrunk.iter_mut().zip(&dx) {
                *a += b;
            }
        };
        for ((head, grad), logits) in self.heads.iter_mut().zip(head_grads).zip(&fwd.head_logits) {
            if let Some(g) = grad {
                add_input_grad(head, logits, g);
            }
        }
        if value_grad != 0.0 {
            add_input_grad(&mut self.value_head, &[fwd.value], &[value_grad]);
        }
        let mut grad = dtrunk;
        for (k, layer) in self.trunk.iter_mut().enumerate().rev() {
            let (x, y) = (&fwd.trunk[k], &fwd.trunk[k + 1]);
            if k == 0 {
                // Nothing reads the observation's gradient.
                layer.backward(x, y, &grad, None);
            } else {
                let mut dx = vec![0.0; x.len()];
                layer.backward(x, y, &grad, Some(&mut dx));
                grad = dx;
            }
        }
    }

    fn layers_mut(&mut self) -> impl Iterator<Item = &mut Dense> {
        self.trunk
            .iter_mut()
            .chain(self.heads.iter_mut())
            .chain(std::iter::once(&mut self.value_head))
    }

    /// Zero all accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.layers_mut().for_each(Dense::zero_grad);
    }

    /// Every layer's parameter and gradient slices (see [`Dense::param_slices`]): trunk
    /// layers, then heads, then the value head. Flattened, this is the order of
    /// [`MultiHeadNet::visit_params`].
    pub fn param_slices(&mut self) -> impl Iterator<Item = (&mut [f64], &[f64])> {
        self.layers_mut().flat_map(Dense::param_slices)
    }

    /// Visit every `(param, grad)` pair in a stable order.
    pub fn visit_params(&mut self, mut f: impl FnMut(&mut f64, f64)) {
        for layer in self.layers_mut() {
            layer.visit_params(&mut f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_net() -> MultiHeadNet {
        let cfg = NetworkConfig {
            input_dim: 4,
            hidden: vec![8],
            heads: vec![("op".into(), 3), ("attr".into(), 5)],
        };
        MultiHeadNet::new(&cfg, 42)
    }

    #[test]
    fn construction_and_shapes() {
        let net = small_net();
        assert_eq!(net.num_heads(), 2);
        assert_eq!(net.head_index("attr"), Some(1));
        assert_eq!(net.head_index("missing"), None);
        assert_eq!(net.head_size(0), 3);
        assert_eq!(net.input_dim(), 4);
        // 4*8+8 trunk + 8*3+3 + 8*5+5 heads + 8*1+1 value
        assert_eq!(net.num_params(), 40 + 27 + 45 + 9);
    }

    #[test]
    fn forward_and_inference_agree() {
        let net = small_net();
        let obs = vec![0.1, -0.2, 0.3, 0.4];
        let a = net.forward(&obs);
        let b = net.forward_inference(&obs);
        assert_eq!(a.head_logits, b.head_logits);
        assert_eq!(a.value, b.value);
        assert_eq!(a.head_logits[0].len(), 3);
        assert_eq!(a.head_logits[1].len(), 5);
    }

    #[test]
    fn same_seed_same_network() {
        let cfg = NetworkConfig::with_default_trunk(3, vec![("h".into(), 2)]);
        let a = MultiHeadNet::new(&cfg, 7);
        let b = MultiHeadNet::new(&cfg, 7);
        let obs = vec![1.0, 2.0, 3.0];
        assert_eq!(a.forward(&obs).value, b.forward(&obs).value);
        let c = MultiHeadNet::new(&cfg, 8);
        assert_ne!(
            a.forward_inference(&obs).value,
            c.forward_inference(&obs).value
        );
    }

    /// Full-network gradient check on a composite loss touching one head and the value.
    #[test]
    fn end_to_end_gradient_check() {
        let mut net = small_net();
        let obs = vec![0.5, -0.3, 0.8, 0.1];
        // Loss = sum(logits_head0 * c0) + 2 * value
        let c0 = [0.3, -0.7, 1.1];
        let loss = |net: &MultiHeadNet| {
            let f = net.forward_inference(&obs);
            f.head_logits[0]
                .iter()
                .zip(c0.iter())
                .map(|(l, c)| l * c)
                .sum::<f64>()
                + 2.0 * f.value
        };
        net.zero_grad();
        let fwd = net.forward(&obs);
        net.backward(&fwd, &[Some(c0.to_vec()), None], 2.0);

        // Numeric check on a few parameters, using visit_params order.
        let analytic: Vec<f64> = {
            let mut grads = Vec::new();
            net.visit_params(|_, g| grads.push(g));
            grads
        };
        let eps = 1e-6;
        for &check_idx in &[0usize, 10, 41, 60, analytic.len() - 1] {
            // Perturb parameter check_idx.
            let mut idx = 0;
            net.visit_params(|p, _| {
                if idx == check_idx {
                    *p += eps;
                }
                idx += 1;
            });
            let lp = loss(&net);
            idx = 0;
            net.visit_params(|p, _| {
                if idx == check_idx {
                    *p -= 2.0 * eps;
                }
                idx += 1;
            });
            let lm = loss(&net);
            idx = 0;
            net.visit_params(|p, _| {
                if idx == check_idx {
                    *p += eps;
                }
                idx += 1;
            });
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic[check_idx]).abs() < 1e-4,
                "param {check_idx}: numeric {numeric} vs analytic {}",
                analytic[check_idx]
            );
        }
    }
}
