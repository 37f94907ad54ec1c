//! Advantage actor-critic (policy-gradient) training over recorded episodes.
//!
//! The CDRL engine (in `linx-cdrl`) plays out an episode — one exploration session —
//! recording, per step, the observation, the head choices made (operation type, chosen
//! parameters, possibly a snippet), the validity masks used, and the reward. This module
//! converts such an episode into gradients and applies an Adam update:
//!
//! * discounted returns `G_t` are computed backwards through the episode,
//! * the advantage `A_t = G_t − V(s_t)` uses the network's value head as baseline,
//! * each selected head contributes the policy-gradient term
//!   `−log π(a) · A_t − β · H(π)`, and
//! * the value head regresses toward `G_t` with squared loss.

use serde::{Deserialize, Serialize};

use crate::adam::Adam;
use crate::network::{ForwardResult, MultiHeadNet};
use crate::policy::{entropy, masked_softmax, policy_loss_grad};

/// One head selection made at a step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActionTaken {
    /// Head index in the network.
    pub head: usize,
    /// Chosen index within the head.
    pub choice: usize,
    /// Validity mask applied before sampling (None = all valid).
    pub mask: Option<Vec<bool>>,
}

/// One step of a recorded episode.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpisodeStep {
    /// Observation fed to the network at this step.
    pub observation: Vec<f64>,
    /// The head choices sampled at this step.
    pub actions: Vec<ActionTaken>,
    /// Reward received after the step (end-of-session rewards should already be folded
    /// in by the environment, as Algorithm 2 distributes them across steps).
    pub reward: f64,
}

/// Trainer hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrainerConfig {
    /// Discount factor.
    pub gamma: f64,
    /// Entropy-bonus coefficient (exploration pressure).
    pub entropy_coef: f64,
    /// Value-loss coefficient.
    pub value_coef: f64,
    /// Learning rate.
    pub lr: f64,
    /// Whether to normalize advantages within each update.
    pub normalize_advantages: bool,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            gamma: 0.99,
            entropy_coef: 0.01,
            value_coef: 0.5,
            lr: 3e-3,
            normalize_advantages: true,
        }
    }
}

/// Summary statistics of one update.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct UpdateStats {
    /// Un-discounted episode return (sum of rewards).
    pub episode_return: f64,
    /// Mean policy entropy over all selected heads.
    pub mean_entropy: f64,
    /// Mean squared value error.
    pub value_loss: f64,
    /// Number of steps in the episode.
    pub steps: usize,
}

/// Policy-gradient trainer with an Adam optimizer.
#[derive(Debug, Clone)]
pub struct PolicyGradientTrainer {
    config: TrainerConfig,
    adam: Adam,
}

impl PolicyGradientTrainer {
    /// Create a trainer.
    pub fn new(config: TrainerConfig) -> Self {
        PolicyGradientTrainer {
            adam: Adam::new(config.lr),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> TrainerConfig {
        self.config
    }

    /// Adjust the entropy-bonus coefficient (used for exploration annealing schedules).
    pub fn set_entropy_coef(&mut self, coef: f64) {
        self.config.entropy_coef = coef.max(0.0);
    }

    /// Adjust the learning rate (used for decay schedules); takes effect on the next
    /// update without resetting the optimizer's moment estimates.
    pub fn set_learning_rate(&mut self, lr: f64) {
        self.config.lr = lr.max(0.0);
        self.adam.lr = self.config.lr;
    }

    /// Perform one update from a recorded episode (or batch of concatenated episodes
    /// whose boundaries are handled by the caller's reward shaping). Runs one forward
    /// pass per step, then [`PolicyGradientTrainer::update_with_passes`].
    pub fn update(&mut self, net: &mut MultiHeadNet, episode: &[EpisodeStep]) -> UpdateStats {
        let passes: Vec<ForwardResult> = episode
            .iter()
            .map(|s| net.forward(&s.observation))
            .collect();
        self.update_with_passes(net, episode, &passes)
    }

    /// [`PolicyGradientTrainer::update`] over the forward passes the steps acted on:
    /// `passes[i]` is `net.forward(&episode[i].observation)` under `net`'s current
    /// weights. Each pass's value is the step's baseline, and backward reads the
    /// activations it keeps. An agent acts on the weights the update starts from, so
    /// handing its passes over skips a second forward pass per step and changes no
    /// bit of the result.
    pub fn update_with_passes(
        &mut self,
        net: &mut MultiHeadNet,
        episode: &[EpisodeStep],
        passes: &[ForwardResult],
    ) -> UpdateStats {
        assert_eq!(passes.len(), episode.len(), "one forward pass per step");
        if episode.is_empty() {
            return UpdateStats::default();
        }
        // Discounted returns.
        let mut returns = vec![0.0; episode.len()];
        let mut acc = 0.0;
        for (i, step) in episode.iter().enumerate().rev() {
            acc = step.reward + self.config.gamma * acc;
            returns[i] = acc;
        }
        let mut advantages: Vec<f64> = returns
            .iter()
            .zip(passes)
            .map(|(g, f)| g - f.value)
            .collect();
        if self.config.normalize_advantages && advantages.len() > 1 {
            let mean = advantages.iter().sum::<f64>() / advantages.len() as f64;
            let var = advantages
                .iter()
                .map(|a| (a - mean) * (a - mean))
                .sum::<f64>()
                / advantages.len() as f64;
            let std = var.sqrt().max(1e-6);
            for a in &mut advantages {
                *a = (*a - mean) / std;
            }
        }

        net.zero_grad();
        let mut entropy_sum = 0.0;
        let mut entropy_count = 0usize;
        let mut value_loss_sum = 0.0;
        for (i, (step, fwd)) in episode.iter().zip(passes).enumerate() {
            let mut head_grads: Vec<Option<Vec<f64>>> = vec![None; net.num_heads()];
            for action in &step.actions {
                let probs = masked_softmax(&fwd.head_logits[action.head], action.mask.as_deref());
                entropy_sum += entropy(&probs);
                entropy_count += 1;
                let grad = policy_loss_grad(
                    &probs,
                    action.choice,
                    advantages[i],
                    self.config.entropy_coef,
                );
                // Accumulate if the same head was (unusually) used twice in a step.
                match &mut head_grads[action.head] {
                    Some(existing) => {
                        for (e, g) in existing.iter_mut().zip(grad) {
                            *e += g;
                        }
                    }
                    slot => *slot = Some(grad),
                }
            }
            let value_err = fwd.value - returns[i];
            value_loss_sum += value_err * value_err;
            let value_grad = self.config.value_coef * value_err;
            net.backward(fwd, &head_grads, value_grad);
        }
        // Average gradients over the episode length for scale stability.
        self.adam
            .step(net.param_slices(), 1.0 / episode.len() as f64);

        UpdateStats {
            episode_return: episode.iter().map(|s| s.reward).sum(),
            mean_entropy: if entropy_count > 0 {
                entropy_sum / entropy_count as f64
            } else {
                0.0
            },
            value_loss: value_loss_sum / episode.len() as f64,
            steps: episode.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkConfig;
    use crate::policy::{argmax, masked_softmax, sample_categorical};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A single-state, single-head bandit: the trainer should learn to pick the
    /// rewarded arm.
    #[test]
    fn learns_a_bandit() {
        let cfg = NetworkConfig {
            input_dim: 2,
            hidden: vec![16],
            heads: vec![("arm".into(), 4)],
        };
        let mut net = MultiHeadNet::new(&cfg, 3);
        let mut trainer = PolicyGradientTrainer::new(TrainerConfig {
            lr: 0.02,
            entropy_coef: 0.005,
            normalize_advantages: false,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(5);
        let obs = vec![1.0, 0.0];
        for _ in 0..400 {
            let fwd = net.forward_inference(&obs);
            let probs = masked_softmax(&fwd.head_logits[0], None);
            let choice = sample_categorical(&probs, &mut rng);
            let reward = if choice == 2 { 1.0 } else { 0.0 };
            let episode = vec![EpisodeStep {
                observation: obs.clone(),
                actions: vec![ActionTaken {
                    head: 0,
                    choice,
                    mask: None,
                }],
                reward,
            }];
            trainer.update(&mut net, &episode);
        }
        let probs = masked_softmax(&net.forward_inference(&obs).head_logits[0], None);
        assert_eq!(
            argmax(&probs),
            2,
            "policy should prefer the rewarded arm: {probs:?}"
        );
        assert!(probs[2] > 0.7, "{probs:?}");
    }

    /// With a validity mask, the policy never learns to pick masked arms and still finds
    /// the best valid one.
    #[test]
    fn respects_action_masks() {
        let cfg = NetworkConfig {
            input_dim: 1,
            hidden: vec![8],
            heads: vec![("arm".into(), 3)],
        };
        let mut net = MultiHeadNet::new(&cfg, 11);
        let mut trainer = PolicyGradientTrainer::new(TrainerConfig {
            lr: 0.03,
            normalize_advantages: false,
            ..Default::default()
        });
        let mut rng = StdRng::seed_from_u64(2);
        let obs = vec![1.0];
        let mask = vec![true, false, true]; // arm 1 invalid; arm 2 pays best
        for _ in 0..300 {
            let probs = masked_softmax(&net.forward_inference(&obs).head_logits[0], Some(&mask));
            let choice = sample_categorical(&probs, &mut rng);
            let reward = match choice {
                0 => 0.2,
                2 => 1.0,
                _ => -5.0,
            };
            trainer.update(
                &mut net,
                &[EpisodeStep {
                    observation: obs.clone(),
                    actions: vec![ActionTaken {
                        head: 0,
                        choice,
                        mask: Some(mask.clone()),
                    }],
                    reward,
                }],
            );
        }
        let probs = masked_softmax(&net.forward_inference(&obs).head_logits[0], Some(&mask));
        assert!(probs[1] < 1e-3);
        assert_eq!(argmax(&probs), 2);
    }

    /// The value head learns the expected return of a constant-reward episode.
    #[test]
    fn value_baseline_converges() {
        let cfg = NetworkConfig {
            input_dim: 1,
            hidden: vec![8],
            heads: vec![("h".into(), 2)],
        };
        let mut net = MultiHeadNet::new(&cfg, 9);
        let mut trainer = PolicyGradientTrainer::new(TrainerConfig {
            lr: 0.02,
            gamma: 1.0,
            ..Default::default()
        });
        let obs = vec![0.5];
        for _ in 0..500 {
            trainer.update(
                &mut net,
                &[EpisodeStep {
                    observation: obs.clone(),
                    actions: vec![ActionTaken {
                        head: 0,
                        choice: 0,
                        mask: None,
                    }],
                    reward: 3.0,
                }],
            );
        }
        let v = net.forward_inference(&obs).value;
        assert!((v - 3.0).abs() < 0.5, "value estimate {v}");
    }

    #[test]
    fn multi_step_episode_and_stats() {
        let cfg = NetworkConfig {
            input_dim: 2,
            hidden: vec![8],
            heads: vec![("a".into(), 2), ("b".into(), 3)],
        };
        let mut net = MultiHeadNet::new(&cfg, 1);
        let mut trainer = PolicyGradientTrainer::new(TrainerConfig::default());
        let episode = vec![
            EpisodeStep {
                observation: vec![0.0, 1.0],
                actions: vec![
                    ActionTaken {
                        head: 0,
                        choice: 1,
                        mask: None,
                    },
                    ActionTaken {
                        head: 1,
                        choice: 0,
                        mask: None,
                    },
                ],
                reward: 1.0,
            },
            EpisodeStep {
                observation: vec![1.0, 0.0],
                actions: vec![ActionTaken {
                    head: 0,
                    choice: 0,
                    mask: None,
                }],
                reward: 0.5,
            },
        ];
        let stats = trainer.update(&mut net, &episode);
        assert_eq!(stats.steps, 2);
        assert!((stats.episode_return - 1.5).abs() < 1e-12);
        assert!(stats.mean_entropy > 0.0);
        let empty = trainer.update(&mut net, &[]);
        assert_eq!(empty.steps, 0);
    }
}
