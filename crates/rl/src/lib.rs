//! `linx-rl` — the deep-reinforcement-learning substrate of the LINX reproduction.
//!
//! The original system builds its Deep Reinforcement Learning agent on ChainerRL
//! (paper §7); no equivalent mature crate is available offline, so this crate implements
//! the required substrate from scratch:
//!
//! * [`dense`] — fully connected layers and their backpropagation,
//! * [`network`] — [`MultiHeadNet`], the ATENA/LINX policy architecture: a shared MLP
//!   trunk feeding several independent softmax *segments* (operation type, one segment
//!   per operation parameter, and — in LINX — the snippet segment) plus a scalar value
//!   head (paper Fig. 2),
//! * [`policy`] — masked softmax, categorical sampling, log-probabilities, entropy,
//! * [`adam`] — the Adam optimizer,
//! * [`trainer`] — an advantage actor-critic (policy-gradient with learned baseline and
//!   entropy regularization) trainer operating on recorded episodes.
//!
//! The crate is small and dependency-free, and seeds every RNG. The network is a large
//! share of CDRL training time, so its kernels are written for speed under one order
//! rule: each output of a layer is its bias, then `w[o][i] * x[i]` added for `i` in
//! index order, with no fused multiply-add, so every answer keeps its bits whatever
//! the kernel's blocking (see [`dense`] and `tests/kernels.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adam;
pub mod dense;
pub mod network;
pub mod policy;
pub mod trainer;

pub use adam::Adam;
pub use dense::Dense;
pub use network::{MultiHeadNet, NetworkConfig};
pub use policy::{masked_softmax, sample_categorical, softmax};
pub use trainer::{ActionTaken, EpisodeStep, PolicyGradientTrainer, TrainerConfig};
