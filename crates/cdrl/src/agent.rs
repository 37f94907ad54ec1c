//! The LINX agent: the specification-aware policy network plus the hierarchical action
//! selection procedure (paper §5.3, Fig. 2).
//!
//! The agent first samples an operation *type* from the `op_type` segment (`back`,
//! `filter`, `group-by`, or — when the specification-aware extension is active —
//! `snippet`), then samples the corresponding parameter segments:
//!
//! * filters: attribute → operator → term (term candidates come from the
//!   [`crate::terms::TermInventory`]),
//! * group-bys: grouping attribute → aggregation function → aggregated attribute,
//! * snippets: a snippet index, after which only the snippet's *free* parameters are
//!   sampled from the ordinary segments — the shortcut the paper uses to steer the agent
//!   toward specification-compliant operations.
//!
//! Invalid choices (columns absent from the current view, non-numeric aggregation
//! targets, empty term inventories) are masked out before sampling.

use linx_dataframe::filter::CompareOp;
use linx_dataframe::groupby::AggFunc;
use linx_dataframe::{DataFrame, DataType, Value};
use linx_explore::{NodeId, OpKind, QueryOp};
use linx_ldx::Ldx;
use linx_rl::policy::argmax;
use linx_rl::{masked_softmax, sample_categorical, ActionTaken, MultiHeadNet, NetworkConfig};
use rand::rngs::StdRng;

use crate::config::CdrlConfig;
use crate::env::{AgentAction, LinxEnv};
use crate::snippets::{derive_snippets, FreeParam, Snippet};

/// Names of the operation-type choices (indices into the `op_type` head).
const OP_BACK: usize = 0;
const OP_FILTER: usize = 1;
const OP_GROUPBY: usize = 2;
const OP_SNIPPET: usize = 3;

/// The LINX policy agent.
#[derive(Debug, Clone)]
pub struct LinxAgent {
    net: MultiHeadNet,
    columns: Vec<String>,
    column_types: Vec<DataType>,
    snippets: Vec<Snippet>,
    spec_aware: bool,
    term_slots: usize,
    // Cached head indices.
    h_op: usize,
    h_fattr: usize,
    h_fop: usize,
    h_fterm: usize,
    h_gattr: usize,
    h_agg: usize,
    h_aattr: usize,
    h_snip: usize,
}

impl LinxAgent {
    /// Build an agent for a dataset and LDX query under the given configuration.
    ///
    /// The network layout is identical for every variant except that non-spec-aware
    /// variants have an (unused, permanently masked) snippet segment of size 1 — this
    /// keeps parameter counts comparable across the ablation.
    pub fn new(dataset: &DataFrame, ldx: &Ldx, config: &CdrlConfig) -> Self {
        let schema = dataset.schema();
        let columns: Vec<String> = schema.names().into_iter().map(str::to_string).collect();
        let column_types: Vec<DataType> = schema.fields().iter().map(|f| f.dtype).collect();
        let spec_aware = config.variant.spec_aware_network();
        let snippets = if spec_aware {
            derive_snippets(ldx)
        } else {
            Vec::new()
        };
        let obs_dim = crate::featurize::OBS_DIM;
        let heads = vec![
            ("op_type".to_string(), 4),
            ("filter_attr".to_string(), columns.len().max(1)),
            ("filter_op".to_string(), CompareOp::ALL.len()),
            ("filter_term".to_string(), config.term_slots.max(1)),
            ("group_attr".to_string(), columns.len().max(1)),
            ("agg_func".to_string(), AggFunc::ALL.len()),
            ("agg_attr".to_string(), columns.len().max(1)),
            ("snippet".to_string(), snippets.len().max(1)),
        ];
        let net = MultiHeadNet::new(
            &NetworkConfig::with_default_trunk(obs_dim, heads),
            config.seed,
        );
        let h = |name: &str| net.head_index(name).expect("head exists");
        LinxAgent {
            h_op: h("op_type"),
            h_fattr: h("filter_attr"),
            h_fop: h("filter_op"),
            h_fterm: h("filter_term"),
            h_gattr: h("group_attr"),
            h_agg: h("agg_func"),
            h_aattr: h("agg_attr"),
            h_snip: h("snippet"),
            net,
            columns,
            column_types,
            snippets,
            spec_aware,
            term_slots: config.term_slots,
        }
    }

    /// The underlying network (mutable, for the trainer).
    pub fn net_mut(&mut self) -> &mut MultiHeadNet {
        &mut self.net
    }

    /// The underlying network.
    pub fn net(&self) -> &MultiHeadNet {
        &self.net
    }

    /// The derived snippets (empty for non-spec-aware variants).
    pub fn snippets(&self) -> &[Snippet] {
        &self.snippets
    }

    /// Sample an action for the current environment state. Returns the action and the
    /// per-head selections (for the policy-gradient update).
    pub fn select_action(
        &self,
        env: &LinxEnv,
        obs: &[f64],
        rng: &mut StdRng,
    ) -> (AgentAction, Vec<ActionTaken>) {
        self.decide(env, obs, sample_categorical, rng, None)
    }

    /// Like [`LinxAgent::select_action`], but with the operation-type choice forced to
    /// `forced_op_type` (if it is valid under the current mask). Used by the trainer's
    /// structure-guided warm-up episodes; parameter choices still come from the policy.
    pub fn select_action_guided(
        &self,
        env: &LinxEnv,
        obs: &[f64],
        rng: &mut StdRng,
        forced_op_type: usize,
    ) -> (AgentAction, Vec<ActionTaken>) {
        self.decide(env, obs, sample_categorical, rng, Some(forced_op_type))
    }

    /// Greedy (argmax) action selection, used to extract the learned session after
    /// training.
    pub fn greedy_action(&self, env: &LinxEnv, obs: &[f64]) -> (AgentAction, Vec<ActionTaken>) {
        let mut dummy = rand::SeedableRng::seed_from_u64(0);
        self.decide(env, obs, |probs, _| argmax(probs), &mut dummy, None)
    }

    fn decide(
        &self,
        env: &LinxEnv,
        obs: &[f64],
        mut pick: impl FnMut(&[f64], &mut StdRng) -> usize,
        rng: &mut StdRng,
        forced_op_type: Option<usize>,
    ) -> (AgentAction, Vec<ActionTaken>) {
        let fwd = self.net.forward_inference(obs);
        // What every mask reads of the current view, looked up once per decision.
        let view = env.current_view();
        let present: Vec<bool> = self.columns.iter().map(|c| view.has_column(c)).collect();
        let snip_mask = self.snippet_mask(view);
        let mut taken = Vec::new();

        // --- operation type -------------------------------------------------------
        let op_mask = self.op_type_mask(env, &present, &snip_mask);
        let op_probs = masked_softmax(&fwd.head_logits[self.h_op], Some(&op_mask));
        let op_choice = match forced_op_type {
            // Forcing a filter or group-by while a matching snippet is available prefers
            // the snippet path, so guided episodes also exercise the specification-aware
            // segments (and their pinned, compliant parameters).
            Some(forced)
                if (forced == OP_FILTER || forced == OP_GROUPBY)
                    && op_mask.get(OP_SNIPPET).copied().unwrap_or(false)
                    && self
                        .snippets
                        .iter()
                        .any(|s| matches_forced_kind(s.kind, forced)) =>
            {
                OP_SNIPPET
            }
            Some(forced) if op_mask.get(forced).copied().unwrap_or(false) => forced,
            _ => pick(&op_probs, rng),
        };
        taken.push(ActionTaken {
            head: self.h_op,
            choice: op_choice,
            mask: Some(op_mask.clone()),
        });

        let action = match op_choice {
            OP_BACK => AgentAction::Back,
            OP_FILTER => {
                let op = self.compose_filter(
                    env,
                    &present,
                    &fwd.head_logits,
                    &mut pick,
                    rng,
                    &mut taken,
                    None,
                    None,
                    None,
                );
                AgentAction::Apply(op)
            }
            OP_GROUPBY => {
                let op = self.compose_groupby(
                    &present,
                    &fwd.head_logits,
                    &mut pick,
                    rng,
                    &mut taken,
                    None,
                    None,
                    None,
                );
                AgentAction::Apply(op)
            }
            _ => {
                // Snippet.
                let snip_probs = masked_softmax(&fwd.head_logits[self.h_snip], Some(&snip_mask));
                let snip_choice = pick(&snip_probs, rng);
                taken.push(ActionTaken {
                    head: self.h_snip,
                    choice: snip_choice,
                    mask: Some(snip_mask),
                });
                let snippet = self.snippets.get(snip_choice).cloned().unwrap_or_else(|| {
                    self.snippets.first().cloned().unwrap_or(Snippet {
                        source_node: String::new(),
                        kind: OpKind::GroupBy,
                        attr: None,
                        op: None,
                        term: None,
                        agg: None,
                        agg_attr: None,
                    })
                });
                let op = self.instantiate_snippet(
                    env,
                    &present,
                    &snippet,
                    &fwd.head_logits,
                    &mut pick,
                    rng,
                    &mut taken,
                );
                AgentAction::Apply(op)
            }
        };
        (action, taken)
    }

    // ----------------------------------------------------------------- compositions

    #[allow(clippy::too_many_arguments)]
    fn compose_filter(
        &self,
        env: &LinxEnv,
        present: &[bool],
        logits: &[Vec<f64>],
        pick: &mut impl FnMut(&[f64], &mut StdRng) -> usize,
        rng: &mut StdRng,
        taken: &mut Vec<ActionTaken>,
        fixed_attr: Option<&str>,
        fixed_op: Option<CompareOp>,
        fixed_term: Option<Value>,
    ) -> QueryOp {
        // Attribute.
        let attr = match fixed_attr {
            Some(a) => a.to_string(),
            None => {
                let mask = self.filter_attr_mask(env, present);
                let probs = masked_softmax(&logits[self.h_fattr], Some(&mask));
                let choice = pick(&probs, rng);
                taken.push(ActionTaken {
                    head: self.h_fattr,
                    choice,
                    mask: Some(mask),
                });
                self.columns
                    .get(choice)
                    .cloned()
                    .unwrap_or_else(|| self.columns.first().cloned().unwrap_or_default())
            }
        };
        // Operator.
        let op = match fixed_op {
            Some(o) => o,
            None => {
                let mask = self.filter_op_mask(&attr);
                let probs = masked_softmax(&logits[self.h_fop], Some(&mask));
                let choice = pick(&probs, rng);
                taken.push(ActionTaken {
                    head: self.h_fop,
                    choice,
                    mask: Some(mask),
                });
                CompareOp::ALL[choice.min(CompareOp::ALL.len() - 1)]
            }
        };
        // Term.
        let term = match fixed_term {
            Some(t) => t,
            None => {
                let mask = env.terms().mask_for(&attr);
                let mask = pad_mask(mask, self.term_slots);
                let probs = masked_softmax(&logits[self.h_fterm], Some(&mask));
                let choice = pick(&probs, rng);
                taken.push(ActionTaken {
                    head: self.h_fterm,
                    choice,
                    mask: Some(mask),
                });
                env.terms()
                    .term_at(&attr, choice)
                    .cloned()
                    .unwrap_or(Value::Null)
            }
        };
        QueryOp::Filter { attr, op, term }
    }

    #[allow(clippy::too_many_arguments)]
    fn compose_groupby(
        &self,
        present: &[bool],
        logits: &[Vec<f64>],
        pick: &mut impl FnMut(&[f64], &mut StdRng) -> usize,
        rng: &mut StdRng,
        taken: &mut Vec<ActionTaken>,
        fixed_attr: Option<&str>,
        fixed_agg: Option<AggFunc>,
        fixed_agg_attr: Option<&str>,
    ) -> QueryOp {
        let g_attr = match fixed_attr {
            Some(a) => a.to_string(),
            None => {
                let mask = present.to_vec();
                let probs = masked_softmax(&logits[self.h_gattr], Some(&mask));
                let choice = pick(&probs, rng);
                taken.push(ActionTaken {
                    head: self.h_gattr,
                    choice,
                    mask: Some(mask),
                });
                self.columns
                    .get(choice)
                    .cloned()
                    .unwrap_or_else(|| self.columns.first().cloned().unwrap_or_default())
            }
        };
        let agg = match fixed_agg {
            Some(a) => a,
            None => {
                let mask = self.agg_func_mask(present);
                let probs = masked_softmax(&logits[self.h_agg], Some(&mask));
                let choice = pick(&probs, rng);
                taken.push(ActionTaken {
                    head: self.h_agg,
                    choice,
                    mask: Some(mask),
                });
                AggFunc::ALL[choice.min(AggFunc::ALL.len() - 1)]
            }
        };
        let agg_attr = match fixed_agg_attr {
            Some(a) => a.to_string(),
            None => {
                let mask = self.agg_attr_mask(present, agg);
                let probs = masked_softmax(&logits[self.h_aattr], Some(&mask));
                let choice = pick(&probs, rng);
                taken.push(ActionTaken {
                    head: self.h_aattr,
                    choice,
                    mask: Some(mask),
                });
                self.columns.get(choice).cloned().unwrap_or(g_attr.clone())
            }
        };
        QueryOp::GroupBy {
            g_attr,
            agg,
            agg_attr,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn instantiate_snippet(
        &self,
        env: &LinxEnv,
        present: &[bool],
        snippet: &Snippet,
        logits: &[Vec<f64>],
        pick: &mut impl FnMut(&[f64], &mut StdRng) -> usize,
        rng: &mut StdRng,
        taken: &mut Vec<ActionTaken>,
    ) -> QueryOp {
        let free = snippet.free_params();
        match snippet.kind {
            OpKind::Filter => self.compose_filter(
                env,
                present,
                logits,
                pick,
                rng,
                taken,
                if free.contains(&FreeParam::FilterAttr) {
                    None
                } else {
                    snippet.attr.as_deref()
                },
                if free.contains(&FreeParam::FilterOp) {
                    None
                } else {
                    snippet.op
                },
                if free.contains(&FreeParam::FilterTerm) {
                    None
                } else {
                    snippet.term.as_deref().map(Value::parse_infer)
                },
            ),
            OpKind::GroupBy => self.compose_groupby(
                present,
                logits,
                pick,
                rng,
                taken,
                if free.contains(&FreeParam::GroupAttr) {
                    None
                } else {
                    snippet.attr.as_deref()
                },
                if free.contains(&FreeParam::AggFunc) {
                    None
                } else {
                    snippet.agg
                },
                if free.contains(&FreeParam::AggAttr) {
                    None
                } else {
                    snippet.agg_attr.as_deref()
                },
            ),
        }
    }

    // ------------------------------------------------------------------------ masks
    //
    // `present[i]` says whether the current view has the dataset column
    // `self.columns[i]`; `decide` looks it up once for every mask.

    fn op_type_mask(&self, env: &LinxEnv, present: &[bool], snip_mask: &[bool]) -> Vec<bool> {
        let can_back = env.tree().current() != NodeId::ROOT;
        let can_filter = self
            .columns
            .iter()
            .zip(present)
            .any(|(c, &p)| p && !env.terms().terms_for(c).is_empty());
        let can_group = present.iter().any(|&p| p);
        let can_snippet =
            self.spec_aware && !self.snippets.is_empty() && snip_mask.iter().any(|&b| b);
        let base = vec![can_back, can_filter, can_group, can_snippet];
        if !self.spec_aware {
            return base;
        }
        // Specification-aware action shifting (§5.3): restrict the operation-type
        // distribution to choices that keep a structurally compliant completion
        // reachable within the remaining budget. If that would rule out everything
        // (e.g. the session already went off the rails), fall back to the base mask so
        // the episode can still finish.
        let back_ok = env.action_keeps_structure_feasible(None);
        let filter_ok = env.action_keeps_structure_feasible(Some(OpKind::Filter));
        let group_ok = env.action_keeps_structure_feasible(Some(OpKind::GroupBy));
        let snippet_ok = self.snippets.iter().any(|s| match s.kind {
            OpKind::Filter => filter_ok,
            OpKind::GroupBy => group_ok,
        });
        let refined = vec![
            base[OP_BACK] && back_ok,
            base[OP_FILTER] && filter_ok,
            base[OP_GROUPBY] && group_ok,
            base[OP_SNIPPET] && snippet_ok,
        ];
        if refined.iter().any(|&b| b) {
            refined
        } else {
            base
        }
    }

    fn filter_attr_mask(&self, env: &LinxEnv, present: &[bool]) -> Vec<bool> {
        self.columns
            .iter()
            .zip(present)
            .map(|(c, &p)| p && !env.terms().terms_for(c).is_empty())
            .collect()
    }

    fn filter_op_mask(&self, attr: &str) -> Vec<bool> {
        let is_string = self
            .columns
            .iter()
            .position(|c| c == attr)
            .map(|i| self.column_types[i] == DataType::Str)
            .unwrap_or(true);
        CompareOp::ALL
            .iter()
            .map(|op| match op {
                CompareOp::Contains | CompareOp::StartsWith => is_string,
                _ => true,
            })
            .collect()
    }

    fn agg_func_mask(&self, present: &[bool]) -> Vec<bool> {
        let has_numeric = present
            .iter()
            .zip(&self.column_types)
            .any(|(&p, t)| p && t.is_numeric());
        AggFunc::ALL
            .iter()
            .map(|f| !f.requires_numeric() || has_numeric)
            .collect()
    }

    fn agg_attr_mask(&self, present: &[bool], agg: AggFunc) -> Vec<bool> {
        present
            .iter()
            .zip(&self.column_types)
            .map(|(&p, t)| p && (!agg.requires_numeric() || t.is_numeric()))
            .collect()
    }

    /// Per snippet, whether the view has the column it names (a snippet that names
    /// none is always available).
    fn snippet_mask(&self, view: &DataFrame) -> Vec<bool> {
        if self.snippets.is_empty() {
            return vec![false];
        }
        self.snippets
            .iter()
            .map(|s| s.attr.as_ref().is_none_or(|attr| view.has_column(attr)))
            .collect()
    }
}

/// Whether a snippet's kind corresponds to the forced op-type index.
fn matches_forced_kind(kind: OpKind, forced: usize) -> bool {
    matches!(
        (kind, forced),
        (OpKind::Filter, OP_FILTER) | (OpKind::GroupBy, OP_GROUPBY)
    )
}

fn pad_mask(mut mask: Vec<bool>, len: usize) -> Vec<bool> {
    mask.resize(len, false);
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CdrlVariant;
    use linx_ldx::parse_ldx;
    use rand::SeedableRng;

    fn dataset() -> DataFrame {
        let mut rows = Vec::new();
        for i in 0..50 {
            rows.push(vec![
                Value::str(if i % 3 == 0 { "India" } else { "US" }),
                Value::str(if i % 2 == 0 { "Movie" } else { "TV Show" }),
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
    fn spec_aware_agent_has_snippets_and_basic_agent_does_not() {
        let cfg_full = CdrlConfig::default();
        let agent = LinxAgent::new(&dataset(), &ldx(), &cfg_full);
        assert_eq!(agent.snippets().len(), 2);

        let cfg_basic = CdrlConfig::for_variant(CdrlVariant::NoSpecAwareNet);
        let basic = LinxAgent::new(&dataset(), &ldx(), &cfg_basic);
        assert!(basic.snippets().is_empty());
    }

    #[test]
    fn sampled_actions_are_valid_for_the_environment() {
        let cfg = CdrlConfig::default();
        let data = dataset();
        let mut env = LinxEnv::new(data.clone(), ldx(), cfg.clone());
        let agent = LinxAgent::new(&data, &ldx(), &cfg);
        let mut rng = StdRng::seed_from_u64(3);
        env.reset();
        // Run several steps; every applied operation must be executable.
        for _ in 0..12 {
            if env.is_done() {
                break;
            }
            let obs = env.observe();
            let (action, taken) = agent.select_action(&env, &obs, &mut rng);
            assert!(!taken.is_empty());
            // The first action must never be Back (masked: we are at the root).
            let out = env.step(action.clone());
            if let AgentAction::Apply(_) = action {
                // Masks should make most operations valid; invalid ones only lose reward.
                assert!(out.reward.is_finite());
            }
        }
        assert!(env.tree().num_ops() > 0);
    }

    #[test]
    fn first_step_never_chooses_back() {
        let cfg = CdrlConfig::default();
        let data = dataset();
        let env = {
            let mut e = LinxEnv::new(data.clone(), ldx(), cfg.clone());
            e.reset();
            e
        };
        let agent = LinxAgent::new(&data, &ldx(), &cfg);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let obs = env.observe();
            let (action, _) = agent.select_action(&env, &obs, &mut rng);
            assert_ne!(action, AgentAction::Back);
        }
    }

    #[test]
    fn greedy_action_is_deterministic() {
        let cfg = CdrlConfig::default();
        let data = dataset();
        let mut env = LinxEnv::new(data.clone(), ldx(), cfg.clone());
        env.reset();
        let agent = LinxAgent::new(&data, &ldx(), &cfg);
        let obs = env.observe();
        let (a1, _) = agent.greedy_action(&env, &obs);
        let (a2, _) = agent.greedy_action(&env, &obs);
        assert_eq!(a1, a2);
    }

    /// After a group-by the view holds the grouping column and the aggregate, named
    /// `count(id)` here so that it is also a dataset column: the view keeps 2 of the 3
    /// dataset columns and drops the middle one. Every mask the agent records over
    /// columns marks exactly the view's columns (for `agg_attr`, those the chosen
    /// aggregation can read), with and without the snippet segment.
    #[test]
    fn masks_follow_the_views_columns() {
        let rows = (0..40)
            .map(|i| {
                vec![
                    Value::str(["India", "US", "UK"][i % 3]),
                    Value::Int(i as i64),
                    Value::Int((i % 7) as i64),
                ]
            })
            .collect();
        let data = DataFrame::from_rows(&["country", "id", "count(id)"], rows).unwrap();
        let in_view = [true, false, true];
        let numeric = [false, true, true];
        // Operations below the group-by keep the specification-aware masks open.
        let ldx = parse_ldx(
            "ROOT CHILDREN {A1}\n\
             A1 LIKE [G,country,count,id] and CHILDREN {B1,B2}\n\
             B1 LIKE [F,(?<C>.*),.*,.*]\n\
             B2 LIKE [G,(?<D>.*),(?<AGG>.*),.*]",
        )
        .unwrap();
        for variant in [CdrlVariant::Full, CdrlVariant::NoSpecAwareNet] {
            let cfg = CdrlConfig::for_variant(variant);
            let mut env = LinxEnv::new(data.clone(), ldx.clone(), cfg.clone());
            env.reset();
            env.step(AgentAction::Apply(QueryOp::GroupBy {
                g_attr: "country".into(),
                agg: AggFunc::Count,
                agg_attr: "id".into(),
            }));
            assert_eq!(env.current_view().column_names(), ["country", "count(id)"]);
            let agent = LinxAgent::new(&data, &ldx, &cfg);
            let mut rng = StdRng::seed_from_u64(4);
            let mut checked = [0usize; 3];
            for _ in 0..200 {
                let obs = env.observe();
                let (_, taken) = agent.select_action(&env, &obs, &mut rng);
                let agg = taken
                    .iter()
                    .find(|t| t.head == agent.h_agg)
                    .map(|t| AggFunc::ALL[t.choice]);
                for t in &taken {
                    let mask = t.mask.as_deref().expect("every head is masked");
                    let slot = [agent.h_fattr, agent.h_gattr, agent.h_aattr]
                        .iter()
                        .position(|&h| h == t.head);
                    let want: Vec<bool> = match slot {
                        None => continue,
                        Some(2) => {
                            let agg = agg.expect("agg_attr follows a sampled agg_func");
                            (0..3)
                                .map(|i| in_view[i] && (numeric[i] || !agg.requires_numeric()))
                                .collect()
                        }
                        Some(_) => in_view.to_vec(),
                    };
                    assert_eq!(mask, want, "{variant:?}, head {}", t.head);
                    checked[slot.unwrap()] += 1;
                }
            }
            assert!(checked.iter().all(|&n| n > 0), "{variant:?}: {checked:?}");
        }
    }

    #[test]
    fn snippet_instantiation_produces_country_filters() {
        // Force the snippet path by checking instantiate via select until we observe a
        // country filter with eq/neq — with snippets present this happens quickly.
        let cfg = CdrlConfig::default();
        let data = dataset();
        let mut env = LinxEnv::new(data.clone(), ldx(), cfg.clone());
        env.reset();
        let agent = LinxAgent::new(&data, &ldx(), &cfg);
        let mut rng = StdRng::seed_from_u64(9);
        let mut saw_country_filter = false;
        for _ in 0..200 {
            let obs = env.observe();
            let (action, _) = agent.select_action(&env, &obs, &mut rng);
            if let AgentAction::Apply(QueryOp::Filter { attr, op, .. }) = &action {
                if attr == "country" && matches!(op, CompareOp::Eq | CompareOp::Neq) {
                    saw_country_filter = true;
                    break;
                }
            }
        }
        assert!(
            saw_country_filter,
            "snippets should surface country eq/neq filters"
        );
    }
}
