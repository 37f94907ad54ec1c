//! `linx-cdrl` — the Constrained Deep Reinforcement Learning engine at the core of LINX
//! (paper §5).
//!
//! Given a dataset `D` and LDX specifications `Q_X`, the engine trains a policy that
//! generates an exploration session `T_D` maximizing the bi-objective reward
//!
//! ```text
//! R(S_i, a) = α · R_gen(S_i, a)  +  β · R_comp(S_i, a, Q_X)
//! ```
//!
//! where `R_gen` is ATENA's generic exploration reward (implemented in `linx-explore`)
//! and `R_comp` is LINX's compliance reward, composed of
//!
//! * an **End-of-Session** signal (Algorithm 2): a large positive reward for fully
//!   compliant sessions, a fixed penalty for structurally non-compliant ones, and a
//!   graded reward proportional to the number of satisfied operation parameters in
//!   between, distributed equally over the episode's steps, and
//! * an **immediate** per-operation signal: a penalty whenever the ongoing session can
//!   no longer be completed into a structurally compliant tree within the remaining
//!   step budget (`linx-ldx::partial`).
//!
//! The policy is the **specification-aware network** (paper §5.3): the standard ATENA
//! multi-softmax architecture (operation type + one segment per parameter) extended with
//! a *snippet* segment whose entries are operation shortcuts derived from the
//! operational specifications `opr(Q_X)`.
//!
//! The goal-agnostic **ATENA** baseline and the paper's ablation variants (Table 4) are
//! all expressed as [`CdrlVariant`]s of the same engine.
//!
//! Two things the loop would otherwise re-derive at every step are kept instead:
//!
//! * **Structural feasibility.** Whether the ongoing session can still be completed
//!   into a structurally compliant tree is asked when observing, when masking the
//!   operation types, and for the immediate reward. [`ComplianceReward`] holds one
//!   [`linx_ldx::partial::StructuralOracle`] per run, which memoizes each answer by
//!   the session's shape: every node's parent and operation kind, the cursor, and the
//!   remaining budget. The memo is exact because the structural reduction of an LDX
//!   query keeps only the kind token of each operation pattern, so the search never
//!   reads an operation's parameters.
//! * **The session score.** [`LinxEnv::session_score`] is
//!   `(μ·Σinterest + λ·Σdiversity) / n` over the terms each applied step already
//!   computed, summed in the same order as
//!   [`linx_explore::ExplorationReward::session_score`], which executes a whole
//!   tree through its executor's memo and remains the scorer for trees the
//!   environment did not build (refinement, reporting).
//!
//! Invariant: everything derivable from the dataset alone — the term inventory, the
//! featurizer, and the view-statistics cache bundled in [`DatasetStats`]
//! ([`context`]) — is built *once per dataset* and shared read-only across every
//! goal trained against it; training a goal never mutates per-dataset state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod compliance;
pub mod config;
pub mod context;
pub mod env;
pub mod featurize;
pub mod refine;
pub mod snippets;
pub mod terms;
pub mod trainer;

pub use agent::LinxAgent;
pub use compliance::ComplianceReward;
pub use config::{CdrlConfig, CdrlVariant};
pub use context::DatasetStats;
pub use env::{AgentAction, LinxEnv, StepOutcome};
pub use refine::refine_session;
pub use snippets::Snippet;
pub use terms::TermInventory;
pub use trainer::{CdrlTrainer, TrainLog, TrainOutcome};
