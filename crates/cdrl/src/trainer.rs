//! The CDRL training loop: runs episodes of the [`LinxEnv`] with the [`LinxAgent`],
//! updates the policy with the `linx-rl` actor-critic trainer, tracks the convergence
//! curve (Figure 8), and returns the best session discovered (preferring fully
//! compliant sessions, then structurally compliant ones, then the generic exploration
//! score — mirroring how the paper extracts the output notebook after convergence).

use std::sync::Arc;

use linx_dataframe::DataFrame;
use linx_explore::{ExplorationReward, ExplorationTree, SessionExecutor};
use linx_ldx::Ldx;
use linx_rl::{EpisodeStep, PolicyGradientTrainer, TrainerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::agent::LinxAgent;
use crate::config::CdrlConfig;
use crate::env::LinxEnv;
use linx_ldx::TokenPattern;

/// Operation-type indices shared with the agent's `op_type` head.
const OP_BACK: usize = 0;
const OP_FILTER: usize = 1;
const OP_GROUPBY: usize = 2;

/// Per-episode training telemetry, sufficient to reproduce the paper's convergence
/// plots (Figure 8).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainLog {
    /// Total (reward-shaped) return of each episode.
    pub episode_returns: Vec<f64>,
    /// Number of environment steps of each episode.
    pub episode_steps: Vec<usize>,
    /// Whether each episode's final session was fully compliant.
    pub episode_compliant: Vec<bool>,
    /// Whether each episode's final session was structurally compliant.
    pub episode_structural: Vec<bool>,
}

impl TrainLog {
    /// Total number of environment steps across training.
    pub fn total_env_steps(&self) -> usize {
        self.episode_steps.iter().sum()
    }

    /// Number of recorded episodes.
    pub fn episodes(&self) -> usize {
        self.episode_returns.len()
    }

    /// The convergence curve: cumulative environment steps vs. average episode return
    /// over a sliding window, normalized so the maximum is 1.0 (the paper normalizes
    /// each query's curve to 100%).
    pub fn normalized_curve(&self, window: usize) -> Vec<(usize, f64)> {
        if self.episode_returns.is_empty() {
            return Vec::new();
        }
        let window = window.max(1);
        let mut curve = Vec::new();
        let mut cum_steps = 0usize;
        for i in 0..self.episode_returns.len() {
            cum_steps += self.episode_steps[i];
            let lo = i.saturating_sub(window - 1);
            let avg: f64 = self.episode_returns[lo..=i].iter().sum::<f64>() / (i - lo + 1) as f64;
            curve.push((cum_steps, avg));
        }
        let max = curve
            .iter()
            .map(|(_, r)| *r)
            .fold(f64::NEG_INFINITY, f64::max);
        let min = curve.iter().map(|(_, r)| *r).fold(f64::INFINITY, f64::min);
        let span = (max - min).max(1e-9);
        curve
            .into_iter()
            .map(|(s, r)| (s, ((r - min) / span).clamp(0.0, 1.0)))
            .collect()
    }

    /// The first cumulative step count at which the smoothed normalized reward reaches
    /// `threshold` (e.g. 0.95), if ever — the paper's "steps to converge".
    pub fn steps_to_reach(&self, threshold: f64, window: usize) -> Option<usize> {
        self.normalized_curve(window)
            .into_iter()
            .find(|(_, r)| *r >= threshold)
            .map(|(s, _)| s)
    }

    /// Fraction of the last `n` episodes whose session was fully compliant.
    pub fn recent_compliance_rate(&self, n: usize) -> f64 {
        if self.episode_compliant.is_empty() {
            return 0.0;
        }
        let lo = self.episode_compliant.len().saturating_sub(n);
        let slice = &self.episode_compliant[lo..];
        slice.iter().filter(|&&c| c).count() as f64 / slice.len() as f64
    }
}

/// The result of training on one (dataset, LDX query) pair.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// The best exploration session discovered.
    pub best_tree: ExplorationTree,
    /// Whether that session is fully compliant with the specification.
    pub best_compliant: bool,
    /// Whether that session is structurally compliant.
    pub best_structural: bool,
    /// Its generic exploration score.
    pub best_score: f64,
    /// Training telemetry.
    pub log: TrainLog,
}

/// Runs CDRL training for one (dataset, LDX) pair under a configuration / variant.
#[derive(Debug, Clone)]
pub struct CdrlTrainer {
    config: CdrlConfig,
}

impl CdrlTrainer {
    /// Create a trainer.
    pub fn new(config: CdrlConfig) -> Self {
        CdrlTrainer { config }
    }

    /// The configuration.
    pub fn config(&self) -> &CdrlConfig {
        &self.config
    }

    /// Train and return the best session found plus the training log. Builds fresh
    /// [`crate::context::DatasetStats`] and an executor with a fresh
    /// [`linx_explore::OpMemo`] that shares the statistics' cache, so the run executes
    /// and scores through the same memoized path serving does.
    pub fn train(&self, dataset: DataFrame, ldx: Ldx) -> TrainOutcome {
        let shared = crate::context::DatasetStats::build(&dataset, self.config.term_slots);
        let executor = SessionExecutor::new(dataset).with_stats(Arc::clone(&shared.stats));
        self.train_with_shared(executor, ldx, shared)
    }

    /// Like [`Self::train`], but executing query operations through an existing
    /// executor, and thereby its shared [`linx_explore::OpMemo`], and reusing
    /// prebuilt per-dataset statistics ([`crate::context::DatasetStats`]):
    /// the term inventory, featurizer, and view-statistics cache are shared across
    /// every goal trained over the same dataset instead of being rebuilt per training
    /// run. The exploration pipeline (`linx-engine`) trains every request this way.
    pub fn train_with_shared(
        &self,
        executor: SessionExecutor,
        ldx: Ldx,
        shared: crate::context::DatasetStats,
    ) -> TrainOutcome {
        let dataset = executor.dataset().clone();
        let mut env =
            LinxEnv::with_shared(executor.clone(), ldx.clone(), self.config.clone(), shared);
        let agent_proto = LinxAgent::new(&dataset, &ldx, &self.config);
        let mut agent = agent_proto;
        let mut pg = PolicyGradientTrainer::new(TrainerConfig {
            lr: self.config.learning_rate,
            entropy_coef: self.config.entropy_coef,
            // Per-episode advantage normalization would mean-center every episode,
            // erasing the cross-episode "this session scored better than usual" signal
            // that compliance learning depends on; the value baseline already centers
            // returns across episodes.
            normalize_advantages: false,
            ..TrainerConfig::default()
        });
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ 0xc0ffee);

        let mut log = TrainLog::default();
        let mut best: Option<(bool, bool, f64, ExplorationTree)> = None;

        // Structure-guided warm-up (specification-aware variant only): a fraction of the
        // early episodes force the *operation-type* sequence implied by the structural
        // specification (parameters still come from the policy). The paper achieves the
        // same "compliant operations become likely" effect with its snippet segment over
        // ~0.36M training steps; with this reproduction's much smaller default budget
        // the warm-up supplies the structural demonstrations the policy would otherwise
        // only stumble upon. Documented in `docs/DESIGN.md`.
        let plan = if self.config.variant.spec_aware_network() {
            structure_plan(&ldx)
        } else {
            Vec::new()
        };
        let warmup_episodes = if plan.is_empty() {
            0
        } else {
            (self.config.episodes * 2) / 5
        };

        for episode in 0..self.config.episodes {
            env.reset();
            // Anneal exploration pressure and step size over training so the policy
            // sharpens onto the compliant, high-utility sessions it has found (the
            // late-training convergence the paper's Figure 8 plots).
            let progress = episode as f64 / self.config.episodes.max(1) as f64;
            pg.set_entropy_coef(self.config.entropy_coef * (1.0 - 0.9 * progress));
            pg.set_learning_rate(self.config.learning_rate * (1.0 - 0.5 * progress));
            let guided = episode < warmup_episodes && episode % 2 == 0;
            let mut plan_pos = 0usize;
            let mut steps: Vec<EpisodeStep> = Vec::new();
            while !env.is_done() {
                let obs = env.observe();
                let (action, taken) = if guided && plan_pos < plan.len() {
                    agent.select_action_guided(&env, &obs, &mut rng, plan[plan_pos])
                } else {
                    agent.select_action(&env, &obs, &mut rng)
                };
                plan_pos += 1;
                let outcome = env.step(action);
                steps.push(EpisodeStep {
                    observation: obs,
                    actions: taken,
                    reward: outcome.reward,
                });
                if outcome.done {
                    break;
                }
            }
            // Distribute the end-of-session compliance reward across the steps.
            let bonus = env.end_of_session_bonus(steps.len());
            for s in &mut steps {
                s.reward += bonus;
            }
            let stats = pg.update(agent.net_mut(), &steps);
            let (compliant, structural) = env.compliance_status();
            let score = env.session_score();
            log.episode_returns.push(stats.episode_return);
            log.episode_steps.push(stats.steps);
            log.episode_compliant.push(compliant);
            log.episode_structural.push(structural);
            consider_best(&mut best, compliant, structural, score, env.tree().clone());
        }

        // Final greedy rollout with the trained policy; keep it if it beats the best
        // sampled session.
        env.reset();
        while !env.is_done() {
            let obs = env.observe();
            let (action, _) = agent.greedy_action(&env, &obs);
            let out = env.step(action);
            if out.done {
                break;
            }
        }
        let (compliant, structural) = env.compliance_status();
        let score = env.session_score();
        consider_best(&mut best, compliant, structural, score, env.tree().clone());

        let (best_compliant, best_structural, mut best_score, mut best_tree) =
            best.unwrap_or((false, false, 0.0, ExplorationTree::new()));

        // Parameter refinement (§3, Fig. 1d): once a compliant structure is found, report
        // the free continuity parameters that maximize the generic exploration utility —
        // the "red" parameters the paper says the CDRL engine discovers. Only applied to
        // an already-compliant session, so compliance is preserved.
        if best_compliant && self.config.refine {
            let stats = Arc::clone(executor.stats_cache());
            let reward =
                ExplorationReward::with_cache(linx_explore::RewardWeights::default(), stats);
            let refined = crate::refine::refine_session(
                &best_tree,
                &dataset,
                env.compliance().engine(),
                env.terms(),
                &reward,
            );
            let refined_score = reward.session_score(&executor, &refined);
            if refined_score >= best_score {
                best_score = refined_score;
                best_tree = refined;
            }
        }

        TrainOutcome {
            best_tree,
            best_compliant,
            best_structural,
            best_score,
            log,
        }
    }
}

/// The operation-type sequence (filter / group-by / back) realizing the structural
/// specification's tree in pre-order: emit each declared node's kind, recurse into its
/// declared children, and emit a `back` when returning to a parent that still has
/// siblings to place.
fn structure_plan(ldx: &Ldx) -> Vec<usize> {
    let structural = ldx.structural();
    let kind_of = |name: &str| -> usize {
        structural
            .spec(name)
            .and_then(|s| s.like.as_ref())
            .map(|p| match p.kind_pattern() {
                TokenPattern::Literal(ref k) if k.eq_ignore_ascii_case("F") => OP_FILTER,
                _ => OP_GROUPBY,
            })
            .unwrap_or(OP_GROUPBY)
    };
    // Children (declared parent or ancestor) per node, in declaration order.
    let children = |name: &str| -> Vec<String> {
        structural
            .operation_node_names()
            .iter()
            .filter(|n| {
                structural
                    .declared_parent(n)
                    .or_else(|| structural.declared_ancestor(n))
                    .unwrap_or("ROOT")
                    == name
            })
            .map(|n| n.to_string())
            .collect()
    };
    fn dfs(
        node: &str,
        children: &dyn Fn(&str) -> Vec<String>,
        kind_of: &dyn Fn(&str) -> usize,
        plan: &mut Vec<usize>,
    ) {
        let kids = children(node);
        for (i, kid) in kids.iter().enumerate() {
            plan.push(kind_of(kid));
            dfs(kid, children, kind_of, plan);
            // Return to this node before placing the next sibling.
            if i + 1 < kids.len() {
                let depth_below: usize = subtree_ops(kid, children);
                for _ in 0..depth_below {
                    plan.push(OP_BACK);
                }
            }
        }
    }
    fn subtree_ops(node: &str, children: &dyn Fn(&str) -> Vec<String>) -> usize {
        // Number of `back` steps needed to climb from the deepest rightmost position of
        // the subtree rooted at `node` back to `node`'s parent level: the length of the
        // rightmost path including the node itself.
        let kids = children(node);
        match kids.last() {
            None => 1,
            Some(last) => 1 + subtree_ops(last, children),
        }
    }
    let mut plan = Vec::new();
    dfs("ROOT", &children, &kind_of, &mut plan);
    plan
}

fn consider_best(
    best: &mut Option<(bool, bool, f64, ExplorationTree)>,
    compliant: bool,
    structural: bool,
    score: f64,
    tree: ExplorationTree,
) {
    if tree.num_ops() == 0 {
        return;
    }
    let candidate_rank = (compliant, structural, score);
    let better = match best {
        None => true,
        Some((bc, bs, bscore, _)) => candidate_rank > (*bc, *bs, *bscore),
    };
    if better {
        *best = Some((compliant, structural, score, tree));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CdrlVariant;
    use linx_dataframe::Value;
    use linx_ldx::parse_ldx;

    fn dataset() -> DataFrame {
        let mut rows = Vec::new();
        for i in 0..80 {
            let country = if i % 4 == 0 { "India" } else { "US" };
            let typ = if i % 4 == 0 || i % 2 == 0 {
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

    fn simple_ldx() -> Ldx {
        // A compact spec (2 ops) so the fast-test budget converges reliably.
        parse_ldx(
            "ROOT CHILDREN {A1}\n\
             A1 LIKE [F,country,eq,(?<X>.*)] and CHILDREN {B1}\n\
             B1 LIKE [G,type,count,.*]",
        )
        .unwrap()
    }

    #[test]
    fn full_variant_finds_a_compliant_session() {
        let config = CdrlConfig {
            episodes: 150,
            ..CdrlConfig::default()
        };
        let outcome = CdrlTrainer::new(config).train(dataset(), simple_ldx());
        assert!(
            outcome.best_structural,
            "structure should be learned quickly"
        );
        assert!(
            outcome.best_compliant,
            "full compliance expected for the simple spec"
        );
        assert!(outcome.best_tree.num_ops() >= 2);
        assert_eq!(outcome.log.episodes(), 150);
        assert!(outcome.log.total_env_steps() > 0);
    }

    /// Seeded runs reproduce these sessions, compliance flags, scores and episode
    /// lengths, recorded from the from-scratch feasibility search and session scoring:
    /// the memoized oracle and the incremental score must not move a mask, a random
    /// draw or a score.
    #[test]
    fn seeded_training_reproduces_its_recorded_sessions() {
        let two_branches = parse_ldx(
            "ROOT CHILDREN {A1,A2}\n\
             A1 LIKE [F,country,eq,(?<X>.*)] and CHILDREN {B1}\n\
             B1 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]\n\
             A2 LIKE [F,country,neq,(?<X>.*)] and CHILDREN {B2}\n\
             B2 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]",
        )
        .unwrap();
        assert_trains_to(
            CdrlConfig {
                episodes: 60,
                ..CdrlConfig::default()
            },
            simple_ldx(),
            "ROOT([G,type,nunique,id],[F,country,eq,US]([G,type,count,country]))",
            (true, true),
            0.8796966711327765,
            &[
                4, 5, 5, 4, 4, 4, 4, 5, 4, 4, 3, 4, 3, 4, 4, 4, 4, 4, 4, 3, 4, 4, 4, 3, 4, 4, 4, 3,
                4, 4, 4, 4, 4, 3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 3, 4, 4, 4, 4, 3, 4,
                4, 4, 4, 4,
            ],
        );
        assert_trains_to(
            CdrlConfig {
                episodes: 40,
                ..CdrlConfig::default()
            },
            two_branches.clone(),
            "ROOT([G,country,nunique,country],[F,id,eq,43]([G,type,count,type]),\
             [F,country,neq,India]([G,type,min,id]))",
            (false, true),
            0.8082566862215635,
            &[
                8, 8, 8, 8, 7, 8, 7, 8, 8, 8, 7, 8, 7, 8, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8,
                8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8,
            ],
        );
        assert_trains_to(
            CdrlConfig {
                episodes: 30,
                ..CdrlConfig::for_variant(CdrlVariant::NoSpecAwareNet)
            },
            two_branches,
            "ROOT([G,country,min,id],[G,country,nunique,type],[G,type,nunique,country],\
             [G,country,sum,id],[G,id,max,type])",
            (false, false),
            1.0132331253245201,
            &[
                7, 6, 5, 8, 5, 7, 5, 5, 5, 7, 6, 5, 8, 5, 5, 6, 6, 7, 9, 6, 7, 7, 7, 7, 6, 7, 5, 7,
                6, 8,
            ],
        );
    }

    fn assert_trains_to(
        config: CdrlConfig,
        ldx: Ldx,
        tree: &str,
        flags: (bool, bool),
        score: f64,
        episode_steps: &[usize],
    ) {
        let outcome = CdrlTrainer::new(config).train(dataset(), ldx);
        assert_eq!(outcome.best_tree.to_compact_string(), tree);
        assert_eq!((outcome.best_compliant, outcome.best_structural), flags);
        assert!(
            (outcome.best_score - score).abs() < 1e-9,
            "{}",
            outcome.best_score
        );
        assert_eq!(outcome.log.episode_steps, episode_steps);
    }

    #[test]
    fn atena_variant_ignores_the_specification() {
        let config = CdrlConfig {
            episodes: 40,
            ..CdrlConfig::for_variant(CdrlVariant::Atena)
        };
        let outcome = CdrlTrainer::new(config).train(dataset(), simple_ldx());
        // ATENA still produces a session with positive exploration score, but has no
        // compliance pressure; we only assert it runs and yields a non-empty session.
        assert!(outcome.best_tree.num_ops() > 0);
        assert!(outcome.best_score >= 0.0);
    }

    #[test]
    fn train_log_curve_is_normalized_and_monotone_in_steps() {
        let config = CdrlConfig {
            episodes: 30,
            ..CdrlConfig::default()
        };
        let outcome = CdrlTrainer::new(config).train(dataset(), simple_ldx());
        let curve = outcome.log.normalized_curve(5);
        assert_eq!(curve.len(), 30);
        assert!(curve.windows(2).all(|w| w[0].0 <= w[1].0));
        assert!(curve.iter().all(|(_, r)| (0.0..=1.0).contains(r)));
        let rate = outcome.log.recent_compliance_rate(10);
        assert!((0.0..=1.0).contains(&rate));
    }
}
