//! Partial (ongoing-session) verification — the basis of the *immediate* compliance
//! reward (paper §5.2 and Appendix A.3).
//!
//! During an episode the agent has produced only a prefix `T_D^i` of the final session
//! and has `N − i` steps left. The immediate reward must decide whether *some*
//! completion of the prefix can still satisfy the structural specifications
//! `struct(Q_X)`. A completion extends the ongoing tree with blank placeholder nodes,
//! respecting the pre-order construction discipline: each new node is attached under
//! the current node or one of its ancestors (the positions reachable with `back`
//! actions), and then becomes the new current node.
//!
//! The number of completions of an `N`-node session is bounded by the Catalan number
//! `C_N` (Appendix A.3); the helper [`catalan`] and [`count_completions`] expose the
//! bound and the exact count for analysis and benchmarking.
//!
//! # Memoized feasibility
//!
//! The CDRL loop asks this question several times per step (observation, action
//! masking, immediate reward), yet the hundreds of steps of one training run ask it
//! about only a hundred or so distinct sessions. [`StructuralOracle`] builds the
//! structural engine once and memoizes each answer by the session's [`ShapeKey`]:
//! every node's parent and operation kind, the cursor, and the remaining budget.
//!
//! The memo is exact. [`Ldx::structural`] keeps only the kind token of every `LIKE`
//! pattern ([`crate::OpPattern::structural`]) and turns the parameters into wildcards,
//! so the structural search never looks past an operation's kind, and two sessions
//! with the same key get the same answer. A miss runs the search on a tree rebuilt
//! from the key alone, so nothing outside the key can reach it. The memo has no bound:
//! it holds one boolean per state a run visits. [`can_complete_structurally`] is the
//! one-shot entry over the same search.

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

use linx_explore::{ExplorationTree, NodeId, OpKind};

use crate::ast::Ldx;
use crate::verify::{MatchTree, VerifyEngine};

/// Whether some completion of the ongoing tree with at most `remaining` additional
/// operations can satisfy the *structural* part of `ldx`.
///
/// `current` is the node under which the next operation would be placed (the CDRL
/// environment's cursor). Builds the structural engine on every call; callers asking
/// repeatedly about one query should hold a [`StructuralOracle`].
pub fn can_complete_structurally(
    ldx: &Ldx,
    tree: &ExplorationTree,
    current: NodeId,
    remaining: usize,
) -> bool {
    let engine = VerifyEngine::new(ldx.structural());
    completes(&engine, &MatchTree::from(tree), current.index(), remaining)
}

/// Whether `tree` already satisfies `engine`, or adding at most `remaining` blank nodes
/// can make it: each one attached under the current node or one of its ancestors, then
/// becoming the current node (the pre-order growth rule).
fn completes(engine: &VerifyEngine, tree: &MatchTree, current: usize, remaining: usize) -> bool {
    if engine.find_assignment_in(tree).is_some() {
        return true;
    }
    if remaining == 0 {
        return false;
    }
    let mut attach = Some(current);
    while let Some(parent) = attach {
        let mut next = tree.clone();
        let node = next.push_blank(parent);
        if completes(engine, &next, node, remaining - 1) {
            return true;
        }
        attach = tree.parent(parent);
    }
    false
}

/// The structural signature of an ongoing session: everything the feasibility search
/// reads, and the key of [`StructuralOracle`]'s memo.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ShapeKey {
    /// Parent index and operation kind of every non-root node, in node-id order.
    nodes: Vec<(usize, Option<OpKind>)>,
    cursor: usize,
    remaining: usize,
}

impl ShapeKey {
    /// The signature of `tree` with the next operation placed under `cursor` and at
    /// most `remaining` operations left.
    pub fn new(tree: &ExplorationTree, cursor: NodeId, remaining: usize) -> Self {
        let nodes = (1..tree.len())
            .map(|i| {
                let id = NodeId(i);
                let parent = tree.parent(id).map_or(0, |p| p.index());
                (parent, tree.op(id).map(|op| op.kind()))
            })
            .collect();
        ShapeKey {
            nodes,
            cursor: cursor.index(),
            remaining,
        }
    }

    /// The signature after appending an operation of `kind` under the cursor, which
    /// moves to the new node. The budget is left as it is.
    pub fn with_child(mut self, kind: OpKind) -> Self {
        self.nodes.push((self.cursor, Some(kind)));
        self.cursor = self.nodes.len();
        self
    }

    /// The tree the key stands for, each operation reduced to its kind token.
    fn match_tree(&self) -> MatchTree {
        let mut tree = MatchTree::root();
        for &(parent, kind) in &self.nodes {
            tree.push_op(parent, kind.map(|k| vec![k.tag().to_string()]));
        }
        tree
    }
}

/// [`can_complete_structurally`] for one LDX query, with the structural engine built
/// once and every answer memoized by [`ShapeKey`] (exact; see the module docs).
#[derive(Debug)]
pub struct StructuralOracle {
    engine: VerifyEngine,
    memo: Mutex<HashMap<ShapeKey, bool>>,
}

impl StructuralOracle {
    /// An oracle for the structural reduction of `ldx`.
    pub fn new(ldx: &Ldx) -> Self {
        StructuralOracle {
            engine: VerifyEngine::new(ldx.structural()),
            memo: Mutex::default(),
        }
    }

    /// The verification engine of `struct(Q_X)`.
    pub fn engine(&self) -> &VerifyEngine {
        &self.engine
    }

    /// Whether some completion of the session `key` describes can satisfy the
    /// structural specifications. Equals [`can_complete_structurally`] on every tree
    /// with this key; the search runs once per key.
    pub fn can_complete(&self, key: ShapeKey) -> bool {
        let known = self.memo().get(&key).copied();
        if let Some(answer) = known {
            return answer;
        }
        let answer = completes(&self.engine, &key.match_tree(), key.cursor, key.remaining);
        self.memo().insert(key, answer);
        answer
    }

    /// Number of memoized answers.
    pub fn memoized(&self) -> usize {
        self.memo().len()
    }

    fn memo(&self) -> MutexGuard<'_, HashMap<ShapeKey, bool>> {
        self.memo.lock().expect("feasibility memo lock")
    }
}

impl Clone for StructuralOracle {
    fn clone(&self) -> Self {
        StructuralOracle {
            engine: self.engine.clone(),
            memo: Mutex::new(self.memo().clone()),
        }
    }
}

/// Exact number of distinct completions when extending a session whose current node has
/// `depth` ancestors-plus-self attachment choices, with `remaining` nodes still to add.
///
/// Each added node may attach at any of the current attachment points; attaching at
/// depth `d` gives the next step `d + 1` choices. This is the quantity bounded by the
/// Catalan number in the paper's analysis.
pub fn count_completions(depth_choices: usize, remaining: usize) -> u64 {
    fn rec(choices: usize, remaining: usize) -> u64 {
        if remaining == 0 {
            return 1;
        }
        let mut total = 0u64;
        // Attaching under the current node keeps `choices + 1` options next; attaching
        // under the k-th ancestor reduces the options to `k + 1`.
        for k in 0..choices {
            total += rec(k + 2, remaining - 1);
        }
        total
    }
    rec(depth_choices, remaining)
}

/// The `n`-th Catalan number `C_n = (2n)! / (n! (n+1)!)`, the paper's bound on the
/// number of ordered trees of size `n`.
pub fn catalan(n: u64) -> u64 {
    let mut c: u128 = 1;
    for i in 0..n as u128 {
        c = c * 2 * (2 * i + 1) / (i + 2);
    }
    c as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_ldx;
    use linx_dataframe::filter::CompareOp;
    use linx_dataframe::groupby::AggFunc;
    use linx_dataframe::Value;
    use linx_explore::QueryOp;

    fn fig1c_struct() -> Ldx {
        parse_ldx(
            "BEGIN CHILDREN {A1,A2}\n\
             A1 LIKE [F,country,eq,(?<X>.*)] and CHILDREN {B1}\n\
             B1 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]\n\
             A2 LIKE [F,country,neq,(?<X>.*)] and CHILDREN {B2}\n\
             B2 LIKE [G,(?<COL>.*),(?<AGG>.*),.*]",
        )
        .unwrap()
    }

    #[test]
    fn empty_prefix_can_always_complete_given_enough_steps() {
        let ldx = fig1c_struct();
        let tree = ExplorationTree::new();
        assert!(can_complete_structurally(&ldx, &tree, NodeId::ROOT, 4));
        assert!(
            !can_complete_structurally(&ldx, &tree, NodeId::ROOT, 3),
            "spec needs 4 operations; 3 remaining steps cannot complete it"
        );
    }

    #[test]
    fn good_prefix_remains_completable() {
        let ldx = fig1c_struct();
        let mut tree = ExplorationTree::new();
        let f1 = tree.add_child(
            NodeId::ROOT,
            QueryOp::filter("country", CompareOp::Eq, Value::str("India")),
        );
        assert!(can_complete_structurally(&ldx, &tree, f1, 3));
    }

    #[test]
    fn bad_prefix_detected_when_budget_too_small() {
        let ldx = fig1c_struct();
        // Prefix: a group-by straight off the root. The structural spec requires the
        // root's children to be two filters; with only 3 steps left there is no room for
        // both filters and their group-by children *and* the stray group-by is harmless,
        // but only 3 more nodes cannot give ROOT two filter children each with a G child.
        let mut tree = ExplorationTree::new();
        tree.add_child(
            NodeId::ROOT,
            QueryOp::group_by("type", AggFunc::Count, "id"),
        );
        assert!(!can_complete_structurally(&ldx, &tree, NodeId(1), 3));
        assert!(can_complete_structurally(&ldx, &tree, NodeId(1), 4));
    }

    #[test]
    fn already_compliant_prefix_is_trivially_completable() {
        let ldx = fig1c_struct();
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
        assert!(can_complete_structurally(&ldx, &t, NodeId(4), 0));
    }

    #[test]
    fn catalan_numbers() {
        assert_eq!(catalan(0), 1);
        assert_eq!(catalan(1), 1);
        assert_eq!(catalan(2), 2);
        assert_eq!(catalan(3), 5);
        assert_eq!(catalan(4), 14);
        assert_eq!(catalan(10), 16796);
    }

    #[test]
    fn completion_counts_match_the_paper_example() {
        // Appendix A.3: right after the first step (current node is a child of the
        // root, 2 attachment choices), adding one node gives 2 trees, adding two gives 5.
        assert_eq!(count_completions(2, 0), 1);
        assert_eq!(count_completions(2, 1), 2);
        assert_eq!(count_completions(2, 2), 5);
        // And the counts stay below the Catalan bound for the total tree size.
        for remaining in 0..6u64 {
            let total_nodes = 2 + remaining; // root + first op + completions
            assert!(count_completions(2, remaining as usize) <= catalan(total_nodes));
        }
    }
}
