//! The MDP environment (paper §5.1).
//!
//! Each episode generates one exploration session over the dataset. At every step the
//! agent either applies a parametric query operation (which becomes a child of the
//! current node and the new current node) or takes the `back` action (moving the current
//! pointer to the parent). The per-step reward is the bi-objective
//! `α·R_gen + β·R_comp` combination; the End-of-Session component of `R_comp` is
//! computed by [`LinxEnv::end_of_session_bonus`] once the episode terminates and is
//! distributed equally across the episode's steps by the trainer (Algorithm 2).
//!
//! The environment scores its own session: each applied step adds its interestingness
//! to a running sum next to the [`SessionDiversity`] tracker, so
//! [`LinxEnv::session_score`] never re-executes the tree.

use std::collections::HashMap;
use std::sync::Arc;

use linx_dataframe::DataFrame;
use linx_explore::{
    ExplorationReward, ExplorationTree, NodeId, QueryOp, RewardWeights, SessionDiversity,
    SessionExecutor,
};
use linx_ldx::partial::ShapeKey;
use linx_ldx::Ldx;

use crate::compliance::ComplianceReward;
use crate::config::CdrlConfig;
use crate::context::DatasetStats;
use crate::featurize::Featurizer;
use crate::terms::TermInventory;

/// An action the agent can take at each step.
#[derive(Debug, Clone, PartialEq)]
pub enum AgentAction {
    /// Move the current pointer back to the parent node.
    Back,
    /// Apply a query operation under the current node.
    Apply(QueryOp),
}

/// The result of one environment step.
#[derive(Debug, Clone, Copy)]
pub struct StepOutcome {
    /// Immediate reward for the step (excluding the end-of-session component).
    pub reward: f64,
    /// Whether the episode has terminated.
    pub done: bool,
    /// Whether a new operation node was added to the session tree.
    pub applied: bool,
}

/// The LINX MDP environment for one (dataset, LDX query) pair.
#[derive(Debug, Clone)]
pub struct LinxEnv {
    executor: SessionExecutor,
    explore_reward: ExplorationReward,
    compliance: ComplianceReward,
    /// Per-dataset statistics (featurizer, term inventory, stats cache) shared across
    /// goals and episodes; see [`DatasetStats`].
    shared: DatasetStats,
    config: CdrlConfig,
    max_ops: usize,
    max_steps: usize,
    // Episode state.
    tree: ExplorationTree,
    views: HashMap<NodeId, DataFrame>,
    /// Canonical op path per node (see [`SessionExecutor::child_path`]), so op results
    /// route through the executor's shared memo.
    paths: HashMap<NodeId, String>,
    /// Incremental diversity tracker: each node's primary histogram is stored once,
    /// and a step updates only the new node's minimum distance (O(n) per step, never
    /// an all-pairs rescan).
    diversity: SessionDiversity,
    /// Σ interestingness of the applied operations, in application (= pre-order) order.
    interest_sum: f64,
    steps_taken: usize,
}

impl LinxEnv {
    /// Create an environment over fresh [`DatasetStats`] and an executor with a fresh
    /// [`linx_explore::OpMemo`] that shares the statistics' cache.
    pub fn new(dataset: DataFrame, ldx: Ldx, config: CdrlConfig) -> Self {
        let shared = DatasetStats::build(&dataset, config.term_slots);
        let executor = SessionExecutor::new(dataset).with_stats(Arc::clone(&shared.stats));
        Self::with_shared(executor, ldx, config, shared)
    }

    /// Create an environment around an existing executor, and thereby its shared
    /// [`linx_explore::OpMemo`], reusing prebuilt per-dataset statistics: repeated op
    /// executions across episodes — and across goals served over the same dataset —
    /// hit the memo, and the featurizer, the term inventory, and the view-statistics
    /// cache are shared (by `Arc`) with every other environment handed the same
    /// [`DatasetStats`], so batch serving and CDRL training over one dataset compute
    /// each per-dataset statistic once.
    pub fn with_shared(
        executor: SessionExecutor,
        ldx: Ldx,
        config: CdrlConfig,
        shared: DatasetStats,
    ) -> Self {
        let dataset = executor.dataset().clone();
        let max_ops = config
            .episode_ops
            .unwrap_or_else(|| (ldx.min_operations() + config.episode_slack).max(2));
        let max_steps = max_ops * 2 + 2;
        let compliance = ComplianceReward::new(ldx, config.clone());
        let mut views = HashMap::new();
        views.insert(NodeId::ROOT, dataset);
        let mut paths = HashMap::new();
        paths.insert(NodeId::ROOT, String::new());
        LinxEnv {
            executor,
            explore_reward: ExplorationReward::with_cache(
                RewardWeights::default(),
                Arc::clone(&shared.stats),
            ),
            compliance,
            shared,
            config,
            max_ops,
            max_steps,
            tree: ExplorationTree::new(),
            views,
            paths,
            diversity: SessionDiversity::new(),
            interest_sum: 0.0,
            steps_taken: 0,
        }
    }

    /// The maximum number of query operations per episode.
    pub fn max_ops(&self) -> usize {
        self.max_ops
    }

    /// The term inventory derived from the root dataset.
    pub fn terms(&self) -> &TermInventory {
        &self.shared.terms
    }

    /// The featurizer (exposed so the agent knows the observation dimension).
    pub fn featurizer(&self) -> &Featurizer {
        &self.shared.featurizer
    }

    /// The shared per-dataset statistics (featurizer, terms, view-statistics cache).
    pub fn shared_stats(&self) -> &DatasetStats {
        &self.shared
    }

    /// The compliance reward calculator (exposed for the trainer and tests).
    pub fn compliance(&self) -> &ComplianceReward {
        &self.compliance
    }

    /// The root dataset.
    pub fn dataset(&self) -> &DataFrame {
        self.executor.dataset()
    }

    /// The ongoing (or final) session tree of the current episode.
    pub fn tree(&self) -> &ExplorationTree {
        &self.tree
    }

    /// The result view of the current node.
    pub fn current_view(&self) -> &DataFrame {
        self.views
            .get(&self.tree.current())
            .unwrap_or_else(|| self.executor.dataset())
    }

    /// Reset to a fresh episode.
    pub fn reset(&mut self) {
        self.tree = ExplorationTree::new();
        self.views.clear();
        self.views
            .insert(NodeId::ROOT, self.executor.dataset().clone());
        self.paths.clear();
        self.paths.insert(NodeId::ROOT, String::new());
        self.diversity.clear();
        self.interest_sum = 0.0;
        self.steps_taken = 0;
    }

    /// Whether the episode is over.
    pub fn is_done(&self) -> bool {
        self.tree.num_ops() >= self.max_ops || self.steps_taken >= self.max_steps
    }

    /// The current observation vector.
    ///
    /// Its "completable" flag is clear only when the immediate reward is active, its
    /// penalty is negative, and no completion within the remaining budget is
    /// structurally compliant.
    pub fn observe(&self) -> Vec<f64> {
        let remaining = self.max_ops.saturating_sub(self.tree.num_ops());
        let completable = !self.compliance.variant().immediate_reward()
            || self.config.imm_penalty >= 0.0
            || self.compliance.can_complete(ShapeKey::new(
                &self.tree,
                self.tree.current(),
                remaining,
            ));
        self.shared.featurizer.featurize(
            self.current_view(),
            &self.tree,
            self.steps_taken,
            self.max_steps,
            completable,
            &self.shared.stats,
        )
    }

    /// Take one step.
    pub fn step(&mut self, action: AgentAction) -> StepOutcome {
        self.steps_taken += 1;
        let mut applied = false;
        let reward = match action {
            AgentAction::Back => {
                if self.tree.back() {
                    // Navigation is free: the agent must stay willing to branch the
                    // session tree (required by most LDX structures).
                    0.0
                } else {
                    // back at the root is a wasted step
                    self.config.invalid_penalty * 0.5
                }
            }
            AgentAction::Apply(op) => {
                let parent = self.tree.current();
                let parent_view = self.views[&parent].clone();
                let path = SessionExecutor::child_path(&self.paths[&parent], &op);
                match self.executor.execute_op_at(&path, &parent_view, &op) {
                    Err(_) => self.config.invalid_penalty,
                    Ok(view) => {
                        let node = self.tree.push_op(op.clone());
                        self.views.insert(node, view.clone());
                        self.paths.insert(node, path);
                        applied = true;
                        // Generic exploration reward components for this operation.
                        // Interestingness histograms route through the shared stats
                        // cache; diversity is incremental — the node's primary
                        // histogram is stored once and compared against the stored
                        // histograms of earlier nodes (no per-step rebuild).
                        let interest =
                            self.explore_reward
                                .interestingness(&op, &parent_view, &view);
                        let hist = self
                            .explore_reward
                            .primary_histogram(&self.tree, &view, node);
                        let diversity = self.diversity.observe(node, hist);
                        self.interest_sum += interest;
                        let w = self.explore_reward.weights();
                        let r_gen = w.mu * interest + w.lambda * diversity;
                        // Immediate compliance signal.
                        let remaining = self.max_ops.saturating_sub(self.tree.num_ops());
                        let imm = self.compliance.immediate(
                            &self.tree,
                            self.tree.current(),
                            self.tree.num_ops(),
                            remaining,
                        );
                        self.config.alpha * r_gen + self.config.beta * self.config.delta_imm * imm
                    }
                }
            }
        };
        StepOutcome {
            reward,
            done: self.is_done(),
            applied,
        }
    }

    /// Whether taking an action of the given kind (`None` = `back`) in the current state
    /// can still lead to a *structurally* compliant session within the remaining
    /// operation budget.
    ///
    /// This is the feasibility test behind the specification-aware network's action
    /// shifting (§5.3): the agent's operation-type distribution is restricted to choices
    /// that keep a compliant completion reachable, which is how the reproduction
    /// realizes the paper's "dynamically shifting the action distribution probabilities
    /// toward queries that are more likely to be included in a specifications-compliant
    /// exploration session".
    ///
    /// The probes are [`ShapeKey`]s built from the current tree, never copies of it:
    /// structural specifications constrain only the operation kind.
    pub fn action_keeps_structure_feasible(&self, kind: Option<linx_explore::OpKind>) -> bool {
        let remaining = self.max_ops.saturating_sub(self.tree.num_ops());
        let current = self.tree.current();
        match kind {
            None => match self.tree.parent(current) {
                None => false,
                Some(parent) => self
                    .compliance
                    .can_complete(ShapeKey::new(&self.tree, parent, remaining)),
            },
            Some(kind) => {
                remaining > 0
                    && self.compliance.can_complete(
                        ShapeKey::new(&self.tree, current, remaining - 1).with_child(kind),
                    )
            }
        }
    }

    /// The End-of-Session compliance bonus for the finished episode, already weighted by
    /// `β·γ` and divided by the number of steps so the trainer can add it to every
    /// step's reward (Algorithm 2 distributes it equally).
    pub fn end_of_session_bonus(&self, num_steps: usize) -> f64 {
        if num_steps == 0 {
            return 0.0;
        }
        let eos = self.compliance.end_of_session(&self.tree);
        self.config.beta * self.config.gamma_eos * eos / num_steps as f64
    }

    /// The generic exploration score of the session (used for reporting and for
    /// picking the best session across episodes): `(μ·Σinterest + λ·Σdiversity) / n`
    /// from the terms the steps already computed, 0 for an empty session. Equals
    /// [`ExplorationReward::session_score`] on the same tree without re-executing it.
    pub fn session_score(&self) -> f64 {
        let n = self.tree.num_ops();
        if n == 0 {
            return 0.0;
        }
        let w = self.explore_reward.weights();
        (w.mu * self.interest_sum + w.lambda * self.diversity.total()) / n as f64
    }

    /// Whether the final session is fully / structurally compliant.
    pub fn compliance_status(&self) -> (bool, bool) {
        (
            self.compliance.is_compliant(&self.tree),
            self.compliance.is_structurally_compliant(&self.tree),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linx_dataframe::filter::CompareOp;
    use linx_dataframe::groupby::AggFunc;
    use linx_dataframe::Value;
    use linx_ldx::parse_ldx;

    fn dataset() -> DataFrame {
        let mut rows = Vec::new();
        for i in 0..60 {
            let country = if i % 3 == 0 { "India" } else { "US" };
            let typ = if i % 3 == 0 || i % 2 == 0 {
                "Movie"
            } else {
                "TV Show"
            };
            rows.push(vec![
                Value::str(country),
                Value::str(typ),
                Value::Int(i as i64),
            ]);
        }
        DataFrame::from_rows(&["country", "type", "id"], rows).unwrap()
    }

    fn ldx() -> Ldx {
        parse_ldx(
            "ROOT CHILDREN {A1,A2}\n\
             A1 LIKE [F,country,eq,(?<X>.*)] and CHILDREN {B1}\n\
             B1 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]\n\
             A2 LIKE [F,country,neq,(?<X>.*)] and CHILDREN {B2}\n\
             B2 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]",
        )
        .unwrap()
    }

    #[test]
    fn episode_length_derived_from_ldx() {
        let env = LinxEnv::new(dataset(), ldx(), CdrlConfig::default());
        assert_eq!(env.max_ops(), 5); // 4 named ops + 1 slack
        assert_eq!(env.observe().len(), env.featurizer().obs_dim());
    }

    #[test]
    fn valid_operations_build_the_tree_and_reward_is_finite() {
        let mut env = LinxEnv::new(dataset(), ldx(), CdrlConfig::default());
        env.reset();
        let out = env.step(AgentAction::Apply(QueryOp::filter(
            "country",
            CompareOp::Eq,
            Value::str("India"),
        )));
        assert!(out.applied);
        assert!(out.reward.is_finite());
        assert_eq!(env.tree().num_ops(), 1);
        assert!(env.current_view().num_rows() > 0);

        let out = env.step(AgentAction::Apply(QueryOp::group_by(
            "type",
            AggFunc::Count,
            "id",
        )));
        assert!(out.applied);
        assert_eq!(env.tree().num_ops(), 2);
    }

    #[test]
    fn invalid_operation_is_penalized_and_not_applied() {
        let cfg = CdrlConfig::default();
        let mut env = LinxEnv::new(dataset(), ldx(), cfg.clone());
        env.reset();
        let out = env.step(AgentAction::Apply(QueryOp::filter(
            "no_such_column",
            CompareOp::Eq,
            Value::Int(0),
        )));
        assert!(!out.applied);
        assert_eq!(out.reward, cfg.invalid_penalty);
        assert_eq!(env.tree().num_ops(), 0);
    }

    #[test]
    fn back_action_moves_the_cursor() {
        let mut env = LinxEnv::new(dataset(), ldx(), CdrlConfig::default());
        env.reset();
        env.step(AgentAction::Apply(QueryOp::filter(
            "country",
            CompareOp::Eq,
            Value::str("India"),
        )));
        let before = env.tree().current();
        env.step(AgentAction::Back);
        assert_ne!(env.tree().current(), before);
        assert_eq!(env.tree().current(), NodeId::ROOT);
        // Back at root is allowed but wasteful.
        let out = env.step(AgentAction::Back);
        assert!(out.reward < 0.0);
    }

    #[test]
    fn episode_terminates_after_max_ops() {
        let cfg = CdrlConfig {
            episode_ops: Some(2),
            ..CdrlConfig::default()
        };
        let mut env = LinxEnv::new(dataset(), ldx(), cfg);
        env.reset();
        env.step(AgentAction::Apply(QueryOp::filter(
            "country",
            CompareOp::Eq,
            Value::str("India"),
        )));
        assert!(!env.is_done());
        let out = env.step(AgentAction::Apply(QueryOp::group_by(
            "type",
            AggFunc::Count,
            "id",
        )));
        assert!(out.done);
        assert!(env.is_done());
    }

    #[test]
    fn eos_bonus_rewards_compliant_sessions() {
        let mut env = LinxEnv::new(dataset(), ldx(), CdrlConfig::default());
        env.reset();
        // Build the fully compliant session.
        env.step(AgentAction::Apply(QueryOp::filter(
            "country",
            CompareOp::Eq,
            Value::str("India"),
        )));
        env.step(AgentAction::Apply(QueryOp::group_by(
            "type",
            AggFunc::Count,
            "id",
        )));
        env.step(AgentAction::Back);
        env.step(AgentAction::Back);
        env.step(AgentAction::Apply(QueryOp::filter(
            "country",
            CompareOp::Neq,
            Value::str("India"),
        )));
        env.step(AgentAction::Apply(QueryOp::group_by(
            "type",
            AggFunc::Count,
            "id",
        )));
        let (full, structural) = env.compliance_status();
        assert!(full && structural);
        assert!(env.end_of_session_bonus(6) > 0.0);
        assert!(env.session_score() > 0.0);

        // A fresh episode with a useless session gets a negative bonus.
        env.reset();
        env.step(AgentAction::Apply(QueryOp::group_by(
            "country",
            AggFunc::Count,
            "id",
        )));
        assert!(env.end_of_session_bonus(1) < 0.0);
    }

    #[test]
    fn step_rewards_hit_the_shared_stats_cache_incrementally() {
        let mut env = LinxEnv::new(dataset(), ldx(), CdrlConfig::default());
        env.reset();
        let ops = [
            AgentAction::Apply(QueryOp::filter(
                "country",
                CompareOp::Eq,
                Value::str("India"),
            )),
            AgentAction::Apply(QueryOp::group_by("type", AggFunc::Count, "id")),
            AgentAction::Back,
            AgentAction::Back,
            AgentAction::Apply(QueryOp::filter(
                "country",
                CompareOp::Neq,
                Value::str("India"),
            )),
            AgentAction::Apply(QueryOp::group_by("type", AggFunc::Count, "id")),
        ];
        // Per applied step, the reward computes at most a constant number of fresh
        // statistics (per-column interestingness histograms + one primary histogram +
        // one grouping), independent of how many nodes the session already has — the
        // incremental-diversity guarantee. 3 columns x 2 frames + primary + groups.
        let per_step_bound = 8u64;
        for action in ops.iter().cloned() {
            let before = env.shared_stats().stats.stats().misses;
            env.step(action);
            let delta = env.shared_stats().stats.stats().misses - before;
            assert!(
                delta <= per_step_bound,
                "a step computed {delta} fresh statistics (bound {per_step_bound})"
            );
        }
        // Replaying the identical episode recomputes nothing: the op memo hands back
        // the same views, so every statistic is a hit on their storage and selection.
        let cold = env.shared_stats().stats.stats();
        env.reset();
        for action in ops.iter().cloned() {
            env.step(action);
        }
        let warm = env.shared_stats().stats.stats();
        assert_eq!(warm.misses, cold.misses, "replay computes nothing new");
        assert!(warm.hits > cold.hits, "replay is served from the cache");
    }

    /// The incremental session score equals a full re-execution and re-score after
    /// every episode of a seeded run: sampled episodes with wasted `back` steps at the
    /// root and invalid operations mixed in, then the greedy rollout.
    #[test]
    fn session_score_equals_a_full_rescore_after_every_episode() {
        use crate::agent::LinxAgent;
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let cfg = CdrlConfig::default();
        let executor = SessionExecutor::new(dataset());
        let mut env = LinxEnv::new(dataset(), ldx(), cfg.clone());
        let agent = LinxAgent::new(&dataset(), &ldx(), &cfg);
        let full = ExplorationReward::default();
        let mut rng = StdRng::seed_from_u64(7);
        let invalid = QueryOp::filter("no_such_column", CompareOp::Eq, Value::Int(0));
        let (mut backs, mut rejected) = (0, 0);
        let check = |env: &LinxEnv| {
            let rescored = full.session_score(&executor, env.tree());
            let incremental = env.session_score();
            assert!(
                (incremental - rescored).abs() < 1e-9,
                "{incremental} != {rescored} for {}",
                env.tree().to_compact_string()
            );
        };
        for episode in 0..30 {
            env.reset();
            assert_eq!(env.session_score(), 0.0, "an empty session scores 0");
            for step in 0.. {
                let obs = env.observe();
                let action = match (episode % 3, step) {
                    (1, 0) => AgentAction::Back,
                    (2, 1) => AgentAction::Apply(invalid.clone()),
                    _ => agent.select_action(&env, &obs, &mut rng).0,
                };
                let moves_back =
                    action == AgentAction::Back && env.tree().current() != NodeId::ROOT;
                let is_op = matches!(action, AgentAction::Apply(_));
                let out = env.step(action);
                backs += moves_back as usize;
                rejected += (is_op && !out.applied) as usize;
                if out.done {
                    break;
                }
            }
            check(&env);
        }
        env.reset();
        while !env.is_done() {
            let obs = env.observe();
            let (action, _) = agent.greedy_action(&env, &obs);
            if env.step(action).done {
                break;
            }
        }
        assert!(env.tree().num_ops() > 0);
        check(&env);
        assert!(
            backs >= 10 && rejected >= 10,
            "{backs} backs, {rejected} rejected"
        );
        // Sessions of only wasted steps and rejected operations score 0 too.
        env.reset();
        env.step(AgentAction::Back);
        env.step(AgentAction::Apply(invalid));
        assert_eq!(env.session_score(), 0.0);
        check(&env);
    }

    #[test]
    fn reset_clears_episode_state() {
        let mut env = LinxEnv::new(dataset(), ldx(), CdrlConfig::default());
        env.reset();
        env.step(AgentAction::Apply(QueryOp::group_by(
            "country",
            AggFunc::Count,
            "id",
        )));
        assert_eq!(env.tree().num_ops(), 1);
        env.reset();
        assert_eq!(env.tree().num_ops(), 0);
        assert_eq!(env.current_view().num_rows(), env.dataset().num_rows());
    }
}
