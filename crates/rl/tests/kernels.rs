//! Pins the policy network's arithmetic bit for bit.
//!
//! Every answer CDRL gives depends on the exact bits of the network's outputs and of its
//! parameters after each update, so a faster kernel must perform the same floating-point
//! operations in the same order. Two checks hold the network to that:
//!
//! * goldens: the `to_bits` of `forward_inference` at fixed observations, of a fresh
//!   network and after 30 `update` calls, and a digest of every parameter's bits after
//!   those updates, on the production shape (72→64→64, eight heads and the value head)
//!   and on a ragged shape where no layer's output width is a multiple of 4;
//! * a property: `update` and `forward_inference` agree to the bit with a naive
//!   reference written here, which computes one output at a time (bias first, then the
//!   inputs in index order), runs two forward passes per step (values, then gradients)
//!   and applies Adam one parameter at a time.
//!
//! The episodes cover one-choice masks, fully masked heads (uniform fallback), a head
//! picked twice in one step, 1-step episodes, and both advantage settings.
#![allow(clippy::needless_range_loop)]

use linx_rl::policy::{masked_softmax, policy_loss_grad};
use linx_rl::{
    ActionTaken, EpisodeStep, MultiHeadNet, NetworkConfig, PolicyGradientTrainer, TrainerConfig,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The network `LinxAgent` builds at 11 columns and 3 snippets.
fn production() -> NetworkConfig {
    let heads = [4, 11, 8, 12, 11, 6, 11, 3];
    NetworkConfig::with_default_trunk(
        72,
        heads
            .iter()
            .enumerate()
            .map(|(i, &n)| (format!("h{i}"), n))
            .collect(),
    )
}

/// No output width (hidden, head or value) is a multiple of 4.
fn ragged() -> NetworkConfig {
    NetworkConfig {
        input_dim: 10,
        hidden: vec![9, 7],
        heads: [3, 5, 1, 7, 2]
            .iter()
            .enumerate()
            .map(|(i, &n)| (format!("h{i}"), n))
            .collect(),
    }
}

/// FNV-1a over the bit patterns.
fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn params(net: &mut MultiHeadNet) -> Vec<f64> {
    let mut out = Vec::with_capacity(net.num_params());
    net.visit_params(|p, _| out.push(*p));
    out
}

fn observation(rng: &mut StdRng, dim: usize) -> Vec<f64> {
    (0..dim)
        .map(|i| {
            // Some exact zeros, as the featurizer emits for absent columns.
            if i % 5 == 3 {
                0.0
            } else {
                rng.gen_range(-1.5..1.5)
            }
        })
        .collect()
}

/// A mask for a head of `size` under which `choice` was picked. `kind` 0 is no mask,
/// 1 a one-choice mask, 2 a fully masked head, otherwise a random mask holding `choice`.
fn mask(rng: &mut StdRng, size: usize, choice: usize, kind: u32) -> Option<Vec<bool>> {
    match kind {
        0 => None,
        1 => Some((0..size).map(|j| j == choice).collect()),
        2 => Some(vec![false; size]),
        _ => Some(
            (0..size)
                .map(|j| j == choice || rng.gen_bool(0.6))
                .collect(),
        ),
    }
}

/// An episode of `len` steps. Every other step picks its second head twice, and the
/// mask kinds cycle so each kind appears within a few steps.
fn episode(rng: &mut StdRng, cfg: &NetworkConfig, len: usize) -> Vec<EpisodeStep> {
    let sizes: Vec<usize> = cfg.heads.iter().map(|(_, n)| *n).collect();
    (0..len)
        .map(|s| {
            let mut actions = Vec::new();
            let choice = rng.gen_range(0..sizes[0]);
            let kind = [1, 3, 0][s % 3];
            actions.push(ActionTaken {
                head: 0,
                choice,
                mask: mask(rng, sizes[0], choice, kind),
            });
            let head = rng.gen_range(1..sizes.len());
            let repeats = if s % 2 == 0 { 2 } else { 1 };
            for r in 0..repeats {
                let choice = rng.gen_range(0..sizes[head]);
                let kind = [2, 3, 1, 0][(s + r) % 4];
                actions.push(ActionTaken {
                    head,
                    choice,
                    mask: mask(rng, sizes[head], choice, kind),
                });
            }
            EpisodeStep {
                observation: observation(rng, cfg.input_dim),
                actions,
                reward: rng.gen_range(-1.0..2.0),
            }
        })
        .collect()
}

/// Digest of `forward_inference` (every head's logits, then the value) at 6 fixed
/// observations, one of them all zeros.
fn forward_digest(net: &MultiHeadNet) -> u64 {
    let mut rng = StdRng::seed_from_u64(17);
    let mut bits = Vec::new();
    for k in 0..6 {
        let obs = if k == 0 {
            vec![0.0; net.input_dim()]
        } else {
            observation(&mut rng, net.input_dim())
        };
        let f = net.forward_inference(&obs);
        bits.extend(f.head_logits.iter().flatten().copied());
        bits.push(f.value);
    }
    digest(bits)
}

/// The network after 30 updates on seeded episodes of 1 to 7 steps, with the entropy
/// coefficient and learning rate annealed as CDRL's trainer does.
fn trained(cfg: &NetworkConfig, normalize_advantages: bool) -> MultiHeadNet {
    let mut net = MultiHeadNet::new(cfg, 5);
    let mut trainer = PolicyGradientTrainer::new(TrainerConfig {
        entropy_coef: 0.02,
        normalize_advantages,
        ..TrainerConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(23);
    for k in 0..30 {
        let progress = k as f64 / 30.0;
        trainer.set_entropy_coef(0.02 * (1.0 - 0.9 * progress));
        trainer.set_learning_rate(3e-3 * (1.0 - 0.5 * progress));
        let ep = episode(&mut rng, cfg, 1 + k % 7);
        trainer.update(&mut net, &ep);
    }
    net
}

/// Digest of every parameter of [`trained`].
fn trained_digest(cfg: &NetworkConfig, normalize_advantages: bool) -> u64 {
    digest(params(&mut trained(cfg, normalize_advantages)))
}

#[test]
fn forward_inference_keeps_its_bits() {
    let prod = MultiHeadNet::new(&production(), 7);
    assert_eq!(prod.num_params(), 13_187);
    assert_eq!(forward_digest(&prod), 0x0baf_c785_3115_3399, "production");
    assert_eq!(
        forward_digest(&MultiHeadNet::new(&ragged(), 7)),
        0xc290_ac46_b4f0_5d95,
        "ragged"
    );
}

/// A fresh network's biases are all 0.0, so only a trained one shows in which order a
/// forward kernel adds each output's bias.
#[test]
fn trained_forward_inference_keeps_its_bits() {
    assert_eq!(
        forward_digest(&trained(&production(), true)),
        0xacf1_39df_ae64_6bf4,
        "production, normalized"
    );
    assert_eq!(
        forward_digest(&trained(&production(), false)),
        0x021f_0816_5dc0_5f04,
        "production, raw"
    );
    assert_eq!(
        forward_digest(&trained(&ragged(), true)),
        0x1ecf_a087_5f49_7ce7,
        "ragged, normalized"
    );
    assert_eq!(
        forward_digest(&trained(&ragged(), false)),
        0xe496_cfa8_fa5c_f637,
        "ragged, raw"
    );
}

#[test]
fn thirty_updates_keep_every_parameter_bit() {
    assert_eq!(
        trained_digest(&production(), true),
        0xe22d_2461_78bf_afee,
        "production, normalized"
    );
    assert_eq!(
        trained_digest(&production(), false),
        0x968e_a980_c754_e751,
        "production, raw"
    );
    assert_eq!(
        trained_digest(&ragged(), true),
        0xd5c4_8e7c_a8c5_a648,
        "ragged, normalized"
    );
    assert_eq!(
        trained_digest(&ragged(), false),
        0xf0e4_30d1_b5bf_101c,
        "ragged, raw"
    );
}

// ---------------------------------------------------------------- naive reference

struct RefLayer {
    w: Vec<f64>,
    b: Vec<f64>,
    gw: Vec<f64>,
    gb: Vec<f64>,
    in_dim: usize,
    relu: bool,
}

impl RefLayer {
    fn new(in_dim: usize, out_dim: usize, relu: bool) -> Self {
        RefLayer {
            w: vec![0.0; in_dim * out_dim],
            b: vec![0.0; out_dim],
            gw: vec![0.0; in_dim * out_dim],
            gb: vec![0.0; out_dim],
            in_dim,
            relu,
        }
    }

    /// One output at a time: the bias, then each input in index order.
    fn pre(&self, x: &[f64]) -> Vec<f64> {
        (0..self.b.len())
            .map(|o| {
                let mut acc = self.b[o];
                for i in 0..self.in_dim {
                    acc += self.w[o * self.in_dim + i] * x[i];
                }
                acc
            })
            .collect()
    }

    fn act(&self, pre: &[f64]) -> Vec<f64> {
        if self.relu {
            pre.iter().map(|v| v.max(0.0)).collect()
        } else {
            pre.to_vec()
        }
    }

    fn backward(&mut self, x: &[f64], pre: &[f64], grad_out: &[f64]) -> Vec<f64> {
        let mut dx = vec![0.0; self.in_dim];
        for o in 0..self.b.len() {
            let d = if !self.relu || pre[o] > 0.0 { 1.0 } else { 0.0 };
            let dpre = grad_out[o] * d;
            self.gb[o] += dpre;
            for i in 0..self.in_dim {
                self.gw[o * self.in_dim + i] += dpre * x[i];
                dx[i] += dpre * self.w[o * self.in_dim + i];
            }
        }
        dx
    }
}

/// The network and trainer as plain loops: trunk layers, then heads, then the value
/// head, each visited `w` then `b` (the order of `MultiHeadNet::visit_params`).
struct RefNet {
    trunk: Vec<RefLayer>,
    heads: Vec<RefLayer>,
    value: RefLayer,
    m: Vec<f64>,
    v: Vec<f64>,
    t: i32,
}

/// Per layer, the input and pre-activation of one forward pass.
type Trace = Vec<(Vec<f64>, Vec<f64>)>;

impl RefNet {
    fn copy_of(net: &mut MultiHeadNet, cfg: &NetworkConfig) -> Self {
        let mut trunk = Vec::new();
        let mut in_dim = cfg.input_dim;
        for &h in &cfg.hidden {
            trunk.push(RefLayer::new(in_dim, h, true));
            in_dim = h;
        }
        let heads = cfg
            .heads
            .iter()
            .map(|(_, n)| RefLayer::new(in_dim, *n, false))
            .collect();
        let mut r = RefNet {
            trunk,
            heads,
            value: RefLayer::new(in_dim, 1, false),
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        };
        let src = params(net);
        let mut it = src.into_iter();
        for p in r.params_mut() {
            *p = it.next().expect("same parameter count");
        }
        assert!(it.next().is_none(), "same parameter count");
        r
    }

    fn layers(&self) -> impl Iterator<Item = &RefLayer> {
        self.trunk
            .iter()
            .chain(&self.heads)
            .chain(std::iter::once(&self.value))
    }

    fn layers_mut(&mut self) -> impl Iterator<Item = &mut RefLayer> {
        self.trunk
            .iter_mut()
            .chain(self.heads.iter_mut())
            .chain(std::iter::once(&mut self.value))
    }

    fn params_mut(&mut self) -> impl Iterator<Item = &mut f64> {
        self.layers_mut()
            .flat_map(|l| l.w.iter_mut().chain(l.b.iter_mut()))
    }

    fn params(&mut self) -> Vec<f64> {
        self.params_mut().map(|p| *p).collect()
    }

    /// Logits, value, and the trunk trace of one forward pass.
    fn forward(&self, obs: &[f64]) -> (Vec<Vec<f64>>, f64, Trace) {
        let mut trace = Vec::new();
        let mut x = obs.to_vec();
        for l in &self.trunk {
            let pre = l.pre(&x);
            let out = l.act(&pre);
            trace.push((x, pre));
            x = out;
        }
        let logits = self.heads.iter().map(|h| h.pre(&x)).collect();
        let value = self.value.pre(&x)[0];
        trace.push((x, Vec::new()));
        (logits, value, trace)
    }

    fn update(&mut self, episode: &[EpisodeStep], cfg: TrainerConfig) {
        if episode.is_empty() {
            return;
        }
        let n = episode.len();
        let mut returns = vec![0.0; n];
        let mut acc = 0.0;
        for i in (0..n).rev() {
            acc = episode[i].reward + cfg.gamma * acc;
            returns[i] = acc;
        }
        // First pass: the baselines.
        let mut adv: Vec<f64> = (0..n)
            .map(|i| returns[i] - self.forward(&episode[i].observation).1)
            .collect();
        if cfg.normalize_advantages && n > 1 {
            let mean = adv.iter().sum::<f64>() / n as f64;
            let var = adv.iter().map(|a| (a - mean) * (a - mean)).sum::<f64>() / n as f64;
            let std = var.sqrt().max(1e-6);
            for a in &mut adv {
                *a = (*a - mean) / std;
            }
        }
        for l in self.layers_mut() {
            l.gw.iter_mut().for_each(|g| *g = 0.0);
            l.gb.iter_mut().for_each(|g| *g = 0.0);
        }
        // Second pass: the gradients, step by step.
        for (i, step) in episode.iter().enumerate() {
            let (logits, value, trace) = self.forward(&step.observation);
            let mut head_grads: Vec<Option<Vec<f64>>> = vec![None; self.heads.len()];
            for a in &step.actions {
                let probs = masked_softmax(&logits[a.head], a.mask.as_deref());
                let g = policy_loss_grad(&probs, a.choice, adv[i], cfg.entropy_coef);
                match &mut head_grads[a.head] {
                    Some(e) => e.iter_mut().zip(g).for_each(|(e, g)| *e += g),
                    slot => *slot = Some(g),
                }
            }
            let (feat, _) = trace.last().expect("trunk output");
            let mut dtrunk = vec![0.0; feat.len()];
            for (h, g) in self.heads.iter_mut().zip(&head_grads) {
                if let Some(g) = g {
                    let pre = h.pre(feat);
                    let dx = h.backward(feat, &pre, g);
                    dtrunk.iter_mut().zip(dx).for_each(|(a, b)| *a += b);
                }
            }
            let value_grad = cfg.value_coef * (value - returns[i]);
            if value_grad != 0.0 {
                let pre = self.value.pre(feat);
                let dx = self.value.backward(feat, &pre, &[value_grad]);
                dtrunk.iter_mut().zip(dx).for_each(|(a, b)| *a += b);
            }
            let mut g = dtrunk;
            for (l, (x, pre)) in self.trunk.iter_mut().zip(&trace).rev() {
                g = l.backward(x, pre, &g);
            }
        }
        // Adam, one parameter at a time.
        let scale = 1.0 / n as f64;
        let (b1, b2, eps, clip) = (0.9f64, 0.999f64, 1e-8, 5.0);
        self.t += 1;
        let t = self.t as f64;
        let lr_t = cfg.lr * (1.0 - b2.powf(t)).sqrt() / (1.0 - b1.powf(t));
        let grads: Vec<f64> = self
            .layers()
            .flat_map(|l| l.gw.iter().chain(&l.gb))
            .copied()
            .collect();
        let mut m = std::mem::take(&mut self.m);
        let mut v = std::mem::take(&mut self.v);
        for (idx, (p, grad)) in self.params_mut().zip(grads).enumerate() {
            if idx >= m.len() {
                m.push(0.0);
                v.push(0.0);
            }
            let g = (grad * scale).clamp(-clip, clip);
            m[idx] = b1 * m[idx] + (1.0 - b1) * g;
            v[idx] = b2 * v[idx] + (1.0 - b2) * g * g;
            *p -= lr_t * m[idx] / (v[idx].sqrt() + eps);
        }
        self.m = m;
        self.v = v;
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// `update` and `forward_inference` equal the naive reference to the bit, on both
    /// shapes, both advantage settings, and episodes of 1 to 6 steps.
    #[test]
    fn update_matches_the_naive_reference(
        seed in any::<u64>(),
        normalize in any::<bool>(),
        use_ragged in any::<bool>(),
    ) {
        let cfg = if use_ragged { ragged() } else { production() };
        let mut net = MultiHeadNet::new(&cfg, seed);
        let mut reference = RefNet::copy_of(&mut net, &cfg);
        let tc = TrainerConfig {
            entropy_coef: 0.02,
            normalize_advantages: normalize,
            ..TrainerConfig::default()
        };
        let mut trainer = PolicyGradientTrainer::new(tc);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..3 {
            let len = rng.gen_range(1..=6);
            let ep = episode(&mut rng, &cfg, len);
            trainer.update(&mut net, &ep);
            reference.update(&ep, tc);
            prop_assert_eq!(bits(&params(&mut net)), bits(&reference.params()));
            let obs = observation(&mut rng, cfg.input_dim);
            let got = net.forward_inference(&obs);
            let (logits, value, _) = reference.forward(&obs);
            for (g, r) in got.head_logits.iter().zip(&logits) {
                prop_assert_eq!(bits(g), bits(r));
            }
            prop_assert_eq!(got.value.to_bits(), value.to_bits());
        }
    }
}
