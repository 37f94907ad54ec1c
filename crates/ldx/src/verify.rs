//! The LDX verification engine (paper §4.2, Algorithm 1).
//!
//! Given an exploration tree `T_D` and an LDX query `Q_X`, the engine searches for an
//! *assignment*: a mapping of every named node of `Q_X` to a distinct node of `T_D`
//! (with `ROOT ↦ 0`) plus a valuation of the continuity variables, such that every
//! single-node specification is satisfied. The tree is compliant iff at least one valid
//! assignment exists.
//!
//! The same search core also powers:
//!
//! * **structural-only matching** (used by the End-of-Session reward, Algorithm 2),
//!   which matches `struct(Q_X)` — tree-shape constraints and operation kinds only —
//!   and returns *all* assignments so the reward can take the best operational score,
//! * **operational scoring** — given a structural assignment, the fraction of specified
//!   operation parameters that the mapped operations already satisfy, and
//! * **partial (ongoing-session) matching** via [`crate::partial`], where not-yet-taken
//!   future steps are represented as *blank* nodes that match any operation.

use std::collections::BTreeMap;

use linx_explore::{ExplorationTree, NodeId};
use serde::{Deserialize, Serialize};

use crate::ast::{Ldx, NodeSpec, ROOT_NAME};
use crate::pattern::Bindings;

/// A complete assignment `⟨φ_V, φ_C⟩` of an LDX query onto an exploration tree.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    /// Node mapping: named LDX node → tree node index.
    pub nodes: BTreeMap<String, usize>,
    /// Continuity variable valuation.
    pub continuity: Bindings,
}

/// A tree representation the matcher operates on. Converted from [`ExplorationTree`];
/// the partial-verification module also constructs it directly to add blank
/// (wildcard) nodes for not-yet-taken steps.
#[derive(Debug, Clone)]
pub struct MatchTree {
    parents: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    /// Operation token lists; `None` for the root and for blank nodes.
    ops: Vec<Option<Vec<String>>>,
    /// Whether the node is a blank placeholder (matches any operation pattern).
    blank: Vec<bool>,
}

impl MatchTree {
    /// Number of nodes (including the root).
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// Whether the tree has only a root.
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Children of a node.
    pub fn children(&self, idx: usize) -> &[usize] {
        &self.children[idx]
    }

    /// Parent of a node (`None` for the root).
    pub(crate) fn parent(&self, idx: usize) -> Option<usize> {
        self.parents[idx]
    }

    /// A tree holding only the root.
    pub(crate) fn root() -> Self {
        MatchTree {
            parents: vec![None],
            children: vec![Vec::new()],
            ops: vec![None],
            blank: vec![false],
        }
    }

    /// Append a node carrying the operation tokens `op` under `parent`, returning its
    /// index.
    pub(crate) fn push_op(&mut self, parent: usize, op: Option<Vec<String>>) -> usize {
        let idx = self.push_blank(parent);
        self.ops[idx] = op;
        self.blank[idx] = false;
        idx
    }

    /// Append a blank node under `parent`, returning its index.
    pub fn push_blank(&mut self, parent: usize) -> usize {
        let idx = self.parents.len();
        self.parents.push(Some(parent));
        self.children.push(Vec::new());
        self.ops.push(None);
        self.blank.push(true);
        self.children[parent].push(idx);
        idx
    }

    /// Whether `anc` is an ancestor of `node` (strictly above it).
    fn is_ancestor(&self, anc: usize, node: usize) -> bool {
        let mut cur = self.parents[node];
        while let Some(p) = cur {
            if p == anc {
                return true;
            }
            cur = self.parents[p];
        }
        false
    }

    /// All (strict) descendants of a node.
    fn descendants(&self, idx: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack: Vec<usize> = self.children[idx].clone();
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend_from_slice(&self.children[n]);
        }
        out
    }
}

impl From<&ExplorationTree> for MatchTree {
    fn from(tree: &ExplorationTree) -> Self {
        let n = tree.len();
        let mut parents = vec![None; n];
        let mut children = vec![Vec::new(); n];
        let mut ops = vec![None; n];
        let blank = vec![false; n];
        for id in tree.pre_order() {
            let idx = id.index();
            if let Some(p) = tree.parent(id) {
                parents[idx] = Some(p.index());
            }
            children[idx] = tree.children(id).iter().map(NodeId::index).collect();
            ops[idx] = tree.op(id).map(|op| op.tokens());
        }
        MatchTree {
            parents,
            children,
            ops,
            blank,
        }
    }
}

/// The verification engine for one LDX query.
#[derive(Debug, Clone)]
pub struct VerifyEngine {
    ldx: Ldx,
    /// Specs re-ordered so a node's declared parent/ancestor is processed before it.
    order: Vec<usize>,
}

impl VerifyEngine {
    /// Build an engine for a query. The query should pass [`Ldx::validate`]; invalid
    /// queries still work but may never match.
    pub fn new(ldx: Ldx) -> Self {
        let order = processing_order(&ldx);
        VerifyEngine { ldx, order }
    }

    /// The underlying query.
    pub fn ldx(&self) -> &Ldx {
        &self.ldx
    }

    /// Algorithm 1: does the exploration tree comply with the full specification?
    pub fn verify(&self, tree: &ExplorationTree) -> bool {
        self.find_assignment(tree).is_some()
    }

    /// Find one valid assignment, if any.
    pub fn find_assignment(&self, tree: &ExplorationTree) -> Option<Assignment> {
        let mtree = MatchTree::from(tree);
        self.find_assignment_in(&mtree)
    }

    /// Find one valid assignment in an explicit [`MatchTree`] (used by partial
    /// verification, where blank nodes stand in for future steps).
    pub fn find_assignment_in(&self, mtree: &MatchTree) -> Option<Assignment> {
        let mut results = Vec::new();
        self.search(mtree, 0, Assignment::initial(), &mut results, true);
        results.into_iter().next()
    }

    /// All valid assignments (used by the End-of-Session reward to take the best
    /// operational score over structural assignments).
    pub fn all_assignments(&self, tree: &ExplorationTree) -> Vec<Assignment> {
        let mtree = MatchTree::from(tree);
        let mut results = Vec::new();
        self.search(&mtree, 0, Assignment::initial(), &mut results, false);
        results
    }

    /// Recursive search over the specs in processing order.
    fn search(
        &self,
        tree: &MatchTree,
        spec_pos: usize,
        assignment: Assignment,
        results: &mut Vec<Assignment>,
        stop_at_first: bool,
    ) {
        if stop_at_first && !results.is_empty() {
            return;
        }
        if spec_pos == self.order.len() {
            results.push(assignment);
            return;
        }
        let spec = &self.ldx.specs[self.order[spec_pos]];
        for (candidate, new_binds) in self.candidates(tree, spec, &assignment) {
            let mut next = assignment.clone();
            next.nodes.insert(spec.name.clone(), candidate);
            for (k, v) in &new_binds {
                next.continuity.insert(k.clone(), v.clone());
            }
            self.search(tree, spec_pos + 1, next, results, stop_at_first);
            if stop_at_first && !results.is_empty() {
                return;
            }
        }
    }

    /// Candidate tree nodes for a spec under the current partial assignment, each with
    /// the continuity bindings its LIKE match would add.
    fn candidates(
        &self,
        tree: &MatchTree,
        spec: &NodeSpec,
        assignment: &Assignment,
    ) -> Vec<(usize, Bindings)> {
        // Determine the candidate pool from structural declarations.
        let pool: Vec<usize> = if spec.name == ROOT_NAME {
            vec![0]
        } else if let Some(idx) = assignment.nodes.get(&spec.name) {
            vec![*idx]
        } else if let Some(parent) = self
            .ldx
            .declared_parent(&spec.name)
            .and_then(|p| assignment.nodes.get(p))
        {
            tree.children(*parent).to_vec()
        } else if let Some(ancestor) = self
            .ldx
            .declared_ancestor(&spec.name)
            .and_then(|a| assignment.nodes.get(a))
        {
            tree.descendants(*ancestor)
        } else {
            (1..tree.len()).collect()
        };

        let used: Vec<usize> = assignment.nodes.values().copied().collect();
        let mut out = Vec::new();
        for idx in pool {
            if spec.name != ROOT_NAME && (idx == 0 || used.contains(&idx)) {
                continue;
            }
            if spec.name == ROOT_NAME && idx != 0 {
                continue;
            }
            // Structural constraints carried by this spec.
            if let Some(cs) = &spec.children {
                if tree.children(idx).len() < cs.min_children() {
                    continue;
                }
                // Already-mapped named children must actually be children of idx.
                if !cs.named.iter().all(|c| {
                    assignment
                        .nodes
                        .get(c)
                        .map(|&ci| tree.parents[ci] == Some(idx))
                        .unwrap_or(true)
                }) {
                    continue;
                }
            }
            if !spec.descendants.is_empty() {
                let desc = tree.descendants(idx);
                if desc.len() < spec.descendants.len() {
                    continue;
                }
                if !spec.descendants.iter().all(|d| {
                    assignment
                        .nodes
                        .get(d)
                        .map(|&di| tree.is_ancestor(idx, di))
                        .unwrap_or(true)
                }) {
                    continue;
                }
            }
            // Declared parent/ancestor constraints when the parent was mapped *after*
            // being used as a pool source are already honoured by the pool; when the
            // parent is mapped but this node was pinned (idx from assignment), re-check.
            if let Some(parent_name) = self.ldx.declared_parent(&spec.name) {
                if let Some(&pidx) = assignment.nodes.get(parent_name) {
                    if spec.name != ROOT_NAME && tree.parents[idx] != Some(pidx) {
                        continue;
                    }
                }
            }
            if let Some(anc_name) = self.ldx.declared_ancestor(&spec.name) {
                if let Some(&aidx) = assignment.nodes.get(anc_name) {
                    if spec.name != ROOT_NAME && !tree.is_ancestor(aidx, idx) {
                        continue;
                    }
                }
            }
            // Operation pattern.
            let binds = match (&spec.like, &tree.ops[idx], tree.blank[idx]) {
                (None, _, _) => Some(Bindings::new()),
                (Some(_), _, true) => Some(Bindings::new()), // blank node matches anything
                (Some(_), None, false) => {
                    if spec.name == ROOT_NAME {
                        Some(Bindings::new())
                    } else {
                        None
                    }
                }
                (Some(pat), Some(tokens), false) => {
                    pat.matches_tokens(tokens, &assignment.continuity)
                }
            };
            if let Some(b) = binds {
                out.push((idx, b));
            }
        }
        out
    }

    // ---------------------------------------------------------------- structural / opr

    /// All assignments of the *structural* reduction of the query (operation kinds and
    /// tree shape only). Empty iff the tree violates `struct(Q_X)`.
    pub fn structural_assignments(&self, tree: &ExplorationTree) -> Vec<Assignment> {
        VerifyEngine::new(self.ldx.structural()).all_assignments(tree)
    }

    /// Whether the tree satisfies the structural specifications.
    pub fn verify_structural(&self, tree: &ExplorationTree) -> bool {
        let engine = VerifyEngine::new(self.ldx.structural());
        let mtree = MatchTree::from(tree);
        engine.find_assignment_in(&mtree).is_some()
    }

    /// The operational satisfaction ratio of a structural assignment: over all
    /// operational specs, the fraction of constraining parameters satisfied by the
    /// mapped operations (Algorithm 2, `GetOprReward`). Returns 1.0 when there are no
    /// operational specs.
    pub fn operational_score(&self, tree: &ExplorationTree, assignment: &Assignment) -> f64 {
        let opr = self.ldx.operational_specs();
        if opr.is_empty() {
            return 1.0;
        }
        let mut satisfied = 0usize;
        let mut total = 0usize;
        for (name, pattern) in opr {
            total += pattern.num_constraining_params();
            let Some(&idx) = assignment.nodes.get(name) else {
                continue;
            };
            let Some(op) = tree
                .pre_order()
                .into_iter()
                .find(|id| id.index() == idx)
                .and_then(|id| tree.op(id))
            else {
                continue;
            };
            satisfied += pattern.count_satisfied_params(op);
        }
        if total == 0 {
            1.0
        } else {
            satisfied as f64 / total as f64
        }
    }

    /// The best operational score over all structural assignments (0 when the tree is
    /// not even structurally compliant).
    pub fn best_operational_score(&self, tree: &ExplorationTree) -> f64 {
        self.structural_assignments(tree)
            .iter()
            .map(|a| self.operational_score(tree, a))
            .fold(0.0, f64::max)
    }
}

impl Assignment {
    /// The initial assignment: `ROOT ↦ 0`, empty continuity valuation (Definition 4.2).
    pub fn initial() -> Self {
        let mut nodes = BTreeMap::new();
        nodes.insert(ROOT_NAME.to_string(), 0usize);
        Assignment {
            nodes,
            continuity: Bindings::new(),
        }
    }
}

/// Order specs so that a node's declared parent/ancestor is processed before the node
/// itself (falling back to declaration order).
fn processing_order(ldx: &Ldx) -> Vec<usize> {
    let n = ldx.specs.len();
    let mut placed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    // Root (if present) goes first.
    if let Some(root_idx) = ldx.specs.iter().position(|s| s.name == ROOT_NAME) {
        order.push(root_idx);
        placed[root_idx] = true;
    }
    let mut progress = true;
    while order.len() < n && progress {
        progress = false;
        for (i, spec) in ldx.specs.iter().enumerate() {
            if placed[i] {
                continue;
            }
            let dep = ldx
                .declared_parent(&spec.name)
                .or_else(|| ldx.declared_ancestor(&spec.name));
            let ready = match dep {
                None => true,
                Some(d) => ldx
                    .specs
                    .iter()
                    .position(|s| s.name == d)
                    .map(|di| placed[di])
                    .unwrap_or(true),
            };
            if ready {
                order.push(i);
                placed[i] = true;
                progress = true;
            }
        }
    }
    // Anything left (cyclic declarations) appended in declaration order.
    #[allow(clippy::needless_range_loop)]
    for i in 0..n {
        if !placed[i] {
            order.push(i);
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LdxBuilder;
    use crate::parser::parse_ldx;
    use linx_dataframe::filter::CompareOp;
    use linx_dataframe::groupby::AggFunc;
    use linx_dataframe::Value;
    use linx_explore::QueryOp;

    fn fig1c_ldx() -> Ldx {
        parse_ldx(
            "BEGIN CHILDREN {A1,A2}\n\
             A1 LIKE [F,country,eq,(?<X>.*)] and CHILDREN {B1}\n\
             B1 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]\n\
             A2 LIKE [F,country,neq,(?<X>.*)] and CHILDREN {B2}\n\
             B2 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]",
        )
        .unwrap()
    }

    fn compliant_tree() -> ExplorationTree {
        let mut t = ExplorationTree::new();
        let f1 = t.add_child(
            NodeId::ROOT,
            QueryOp::filter("country", CompareOp::Eq, Value::str("India")),
        );
        t.add_child(f1, QueryOp::group_by("rating", AggFunc::Count, "show_id"));
        let f2 = t.add_child(
            NodeId::ROOT,
            QueryOp::filter("country", CompareOp::Neq, Value::str("India")),
        );
        t.add_child(f2, QueryOp::group_by("rating", AggFunc::Count, "show_id"));
        t
    }

    #[test]
    fn verifies_the_running_example() {
        let engine = VerifyEngine::new(fig1c_ldx());
        let tree = compliant_tree();
        assert!(engine.verify(&tree));
        let a = engine.find_assignment(&tree).unwrap();
        assert_eq!(a.nodes["ROOT"], 0);
        assert_eq!(a.continuity.get("X").map(String::as_str), Some("India"));
        assert_eq!(a.continuity.get("COL").map(String::as_str), Some("rating"));
    }

    #[test]
    fn continuity_violation_rejected() {
        // Same structure, but the two filters use different countries, violating (?<X>).
        let engine = VerifyEngine::new(fig1c_ldx());
        let mut t = ExplorationTree::new();
        let f1 = t.add_child(
            NodeId::ROOT,
            QueryOp::filter("country", CompareOp::Eq, Value::str("India")),
        );
        t.add_child(f1, QueryOp::group_by("rating", AggFunc::Count, "show_id"));
        let f2 = t.add_child(
            NodeId::ROOT,
            QueryOp::filter("country", CompareOp::Neq, Value::str("US")),
        );
        t.add_child(f2, QueryOp::group_by("rating", AggFunc::Count, "show_id"));
        assert!(!engine.verify(&t));
        // But it is still structurally compliant (kinds and shape are right).
        assert!(engine.verify_structural(&t));
    }

    #[test]
    fn group_by_continuity_violation_rejected() {
        // Different group-by columns under the two filters violate (?<COL>).
        let engine = VerifyEngine::new(fig1c_ldx());
        let mut t = ExplorationTree::new();
        let f1 = t.add_child(
            NodeId::ROOT,
            QueryOp::filter("country", CompareOp::Eq, Value::str("India")),
        );
        t.add_child(f1, QueryOp::group_by("rating", AggFunc::Count, "show_id"));
        let f2 = t.add_child(
            NodeId::ROOT,
            QueryOp::filter("country", CompareOp::Neq, Value::str("India")),
        );
        t.add_child(f2, QueryOp::group_by("type", AggFunc::Count, "show_id"));
        assert!(!engine.verify(&t));
    }

    #[test]
    fn structure_violation_rejected_entirely() {
        // Group-bys applied directly to the root instead of to the filters.
        let engine = VerifyEngine::new(fig1c_ldx());
        let mut t = ExplorationTree::new();
        t.add_child(
            NodeId::ROOT,
            QueryOp::filter("country", CompareOp::Eq, Value::str("India")),
        );
        t.add_child(
            NodeId::ROOT,
            QueryOp::group_by("rating", AggFunc::Count, "show_id"),
        );
        t.add_child(
            NodeId::ROOT,
            QueryOp::filter("country", CompareOp::Neq, Value::str("India")),
        );
        t.add_child(
            NodeId::ROOT,
            QueryOp::group_by("rating", AggFunc::Count, "show_id"),
        );
        assert!(!engine.verify(&t));
        assert!(!engine.verify_structural(&t));
        assert_eq!(engine.best_operational_score(&t), 0.0);
    }

    #[test]
    fn extra_nodes_do_not_hurt_compliance() {
        let engine = VerifyEngine::new(fig1c_ldx());
        let mut t = compliant_tree();
        // An extra exploratory group-by off the root is fine.
        t.add_child(
            NodeId::ROOT,
            QueryOp::group_by("type", AggFunc::Count, "show_id"),
        );
        assert!(engine.verify(&t));
    }

    #[test]
    fn hello_world_same_attribute_constraint() {
        // Example 4.1: group-by and filter must use the same attribute.
        let ldx = parse_ldx("ROOT CHILDREN <A,B>\nA LIKE [G,(?<X>.*),.*]\nB LIKE [F,(?<X>.*),.*]")
            .unwrap();
        let engine = VerifyEngine::new(ldx);

        let mut ok = ExplorationTree::new();
        ok.add_child(
            NodeId::ROOT,
            QueryOp::group_by("country", AggFunc::Count, "id"),
        );
        ok.add_child(
            NodeId::ROOT,
            QueryOp::filter("country", CompareOp::Eq, Value::str("US")),
        );
        assert!(engine.verify(&ok));

        let mut bad = ExplorationTree::new();
        bad.add_child(
            NodeId::ROOT,
            QueryOp::group_by("country", AggFunc::Count, "id"),
        );
        bad.add_child(
            NodeId::ROOT,
            QueryOp::filter("rating", CompareOp::Eq, Value::str("R")),
        );
        assert!(!engine.verify(&bad));
    }

    #[test]
    fn descendants_matches_deeper_nodes() {
        let ldx = LdxBuilder::new()
            .descendant_of("ROOT", "A1", "[G,month,.*]")
            .build()
            .unwrap();
        let engine = VerifyEngine::new(ldx);
        let mut t = ExplorationTree::new();
        let f = t.add_child(
            NodeId::ROOT,
            QueryOp::filter("origin_airport", CompareOp::Neq, Value::str("BOS")),
        );
        t.add_child(f, QueryOp::group_by("month", AggFunc::Count, "flight_id"));
        assert!(
            engine.verify(&t),
            "group-by is a grandchild, DESCENDANTS should match"
        );

        // With CHILDREN instead, the same tree fails.
        let ldx_children = LdxBuilder::new()
            .child_of("ROOT", "A1", "[G,month,.*]")
            .build()
            .unwrap();
        assert!(!VerifyEngine::new(ldx_children).verify(&t));
    }

    #[test]
    fn children_plus_requires_extra_children() {
        let ldx = parse_ldx("ROOT CHILDREN {A,+}\nA LIKE [F,.*]").unwrap();
        let engine = VerifyEngine::new(ldx);
        let mut one = ExplorationTree::new();
        one.add_child(
            NodeId::ROOT,
            QueryOp::filter("x", CompareOp::Eq, Value::Int(1)),
        );
        assert!(
            !engine.verify(&one),
            "needs at least one more child besides A"
        );
        let mut two = one.clone();
        two.add_child(NodeId::ROOT, QueryOp::group_by("y", AggFunc::Count, "x"));
        assert!(engine.verify(&two));
    }

    #[test]
    fn empty_tree_fails_nonempty_spec() {
        let engine = VerifyEngine::new(fig1c_ldx());
        assert!(!engine.verify(&ExplorationTree::new()));
    }

    #[test]
    fn operational_score_grades_partial_parameter_matches() {
        let engine = VerifyEngine::new(fig1c_ldx());
        // Structurally compliant but filters on 'genre' instead of 'country'.
        let mut t = ExplorationTree::new();
        let f1 = t.add_child(
            NodeId::ROOT,
            QueryOp::filter("genre", CompareOp::Eq, Value::str("Dramas")),
        );
        t.add_child(f1, QueryOp::group_by("rating", AggFunc::Count, "show_id"));
        let f2 = t.add_child(
            NodeId::ROOT,
            QueryOp::filter("genre", CompareOp::Neq, Value::str("Dramas")),
        );
        t.add_child(f2, QueryOp::group_by("rating", AggFunc::Count, "show_id"));
        assert!(engine.verify_structural(&t));
        let score = engine.best_operational_score(&t);
        // Each filter satisfies its operator (eq/neq) but not the 'country' attribute:
        // 2 of 4 constraining parameters.
        assert!((score - 0.5).abs() < 1e-9, "score = {score}");

        // The fully compliant tree scores 1.0.
        assert!((engine.best_operational_score(&compliant_tree()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn all_assignments_finds_multiple_mappings() {
        // Two interchangeable group-by children: both assignments are valid.
        let ldx = parse_ldx("ROOT CHILDREN {A,B}\nA LIKE [G,.*]\nB LIKE [G,.*]").unwrap();
        let engine = VerifyEngine::new(ldx);
        let mut t = ExplorationTree::new();
        t.add_child(NodeId::ROOT, QueryOp::group_by("a", AggFunc::Count, "x"));
        t.add_child(NodeId::ROOT, QueryOp::group_by("b", AggFunc::Count, "x"));
        let assignments = engine.all_assignments(&t);
        assert_eq!(assignments.len(), 2);
    }
}
