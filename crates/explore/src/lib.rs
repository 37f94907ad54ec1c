//! `linx-explore` — the exploration-session model shared by every other LINX crate.
//!
//! An exploration session is a **tree of query operations** (paper §3): the root is the
//! raw dataset, every other node is a filter or group-and-aggregate operation applied to
//! the *result* of its parent, and the session's display order is the tree's pre-order
//! traversal. This crate provides:
//!
//! * [`op::QueryOp`] — the parametric query operations `[F, attr, op, term]` and
//!   `[G, g_attr, agg_func, agg_attr]`,
//! * [`tree::ExplorationTree`] — the session tree with pre-order semantics,
//! * [`session::SessionExecutor`] — executes a tree against a dataframe, materializing
//!   each node's result view,
//! * [`notebook::Notebook`] — a human-readable, Jupyter-like rendering of a session,
//! * [`reward::ExplorationReward`] — ATENA's generic exploration reward (`R_gen` in
//!   §5.1): KL-divergence interestingness for filters, conciseness for group-bys, and
//!   result-distance diversity,
//! * [`narrative::Narrative`] — spelled-out natural-language insight summaries of a
//!   session (the paper's stated future extension, §3 and §8), and
//! * [`ipynb`] — export of rendered notebooks to the Jupyter nbformat (`.ipynb`).
//!
//! Invariant: a node's result view is a pure function of the dataset and the path of
//! operations from the root, so materialized views ([`memo::OpMemo`]) and view
//! statistics (`linx_dataframe::StatsCache`) are shared freely across episodes,
//! goals, and requests without invalidation logic.
//!
//! Both caches are always there: every [`session::SessionExecutor`] executes through
//! an `OpMemo` and holds a `StatsCache`, and every [`reward::ExplorationReward`]
//! reads its statistics through one. The plain constructors build fresh ones;
//! [`session::SessionExecutor::with_memo`], [`session::SessionExecutor::with_stats`]
//! and [`reward::ExplorationReward::with_cache`] share existing ones. There is no
//! cache-less path to keep equivalent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ipynb;
pub mod memo;
pub mod narrative;
pub mod notebook;
pub mod op;
pub mod reward;
pub mod session;
pub mod tree;

pub use ipynb::{to_ipynb, to_ipynb_string};
pub use memo::{OpMemo, OpMemoStats};
pub use narrative::{narrate, narrate_with, Narrative};
pub use notebook::Notebook;
pub use op::{OpKind, QueryOp};
pub use reward::{ExplorationReward, RewardWeights, SessionDiversity};
pub use session::SessionExecutor;
pub use tree::{ExplorationTree, NodeId};
