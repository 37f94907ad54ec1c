//! Property-based tests for the LDX language: parser/printer round-tripping, the
//! structural/operational partition, verification-engine soundness (a tree built to
//! satisfy a query verifies; structurally-broken mutations do not), and the memoized
//! feasibility oracle answering exactly like a fresh completion search.

use linx_dataframe::filter::CompareOp;
use linx_dataframe::groupby::AggFunc;
use linx_dataframe::Value;
use linx_explore::{ExplorationTree, NodeId, OpKind, QueryOp};
use linx_ldx::partial::{can_complete_structurally, ShapeKey, StructuralOracle};
use linx_ldx::{parse_ldx, Ldx, VerifyEngine};
use proptest::prelude::*;

/// A generated filter/group-by specification skeleton for one "A_i -> B_i" branch.
#[derive(Debug, Clone)]
struct Branch {
    filter_attr: String,
    filter_op: &'static str,
    group_attr: String,
}

fn attr_strategy() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["country", "type", "rating", "genre"]).prop_map(str::to_string)
}

fn op_strategy() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec!["eq", "neq"])
}

fn branch_strategy() -> impl Strategy<Value = Branch> {
    (attr_strategy(), op_strategy(), attr_strategy()).prop_map(|(fa, fo, ga)| Branch {
        filter_attr: fa,
        filter_op: fo,
        group_attr: ga,
    })
}

/// Build an LDX query text from 1-3 branches (each: a filter child of ROOT with a
/// group-by child).
fn ldx_text(branches: &[Branch]) -> String {
    let mut lines = Vec::new();
    let child_names: Vec<String> = (0..branches.len()).map(|i| format!("A{}", i + 1)).collect();
    lines.push(format!("ROOT CHILDREN {{{}}}", child_names.join(",")));
    for (i, b) in branches.iter().enumerate() {
        let a = format!("A{}", i + 1);
        let bn = format!("B{}", i + 1);
        lines.push(format!(
            "{a} LIKE [F,{},{},.*] and CHILDREN {{{bn}}}",
            b.filter_attr, b.filter_op
        ));
        lines.push(format!("{bn} LIKE [G,{},count,.*]", b.group_attr));
    }
    lines.join("\n")
}

/// Build a tree that satisfies the generated query (filter then group-by per branch).
fn compliant_tree(branches: &[Branch]) -> ExplorationTree {
    let mut tree = ExplorationTree::new();
    for b in branches {
        let op = CompareOp::parse(b.filter_op).unwrap();
        let f = tree.add_child(
            NodeId::ROOT,
            QueryOp::filter(&b.filter_attr, op, Value::str("x")),
        );
        tree.add_child(f, QueryOp::group_by(&b.group_attr, AggFunc::Count, "k"));
    }
    tree
}

/// A branch of a structural shape: `A_i` under ROOT and `B_i` under `A_i`, each as a
/// child or a descendant, with kind patterns that may be literals, alternations or
/// wildcards, and possibly one extra unnamed child of `A_i`.
#[derive(Debug, Clone)]
struct ShapedBranch {
    branch: Branch,
    a_descendant: bool,
    b_descendant: bool,
    a_extra_child: bool,
    kinds: (&'static str, &'static str),
}

fn kind_pattern_strategy() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec!["F", "G", "F|G", ".*"])
}

fn shaped_branch_strategy() -> impl Strategy<Value = ShapedBranch> {
    let placement = (any::<bool>(), any::<bool>(), any::<bool>());
    let kinds = (kind_pattern_strategy(), kind_pattern_strategy());
    (branch_strategy(), placement, kinds).prop_map(|(branch, (ad, bd, extra), kinds)| {
        ShapedBranch {
            branch,
            a_descendant: ad,
            b_descendant: bd,
            a_extra_child: extra && !bd,
            kinds,
        }
    })
}

/// The LDX text of 1-2 shaped branches.
fn shaped_ldx_text(branches: &[ShapedBranch]) -> String {
    let mut lines = Vec::new();
    for (i, s) in branches.iter().enumerate() {
        let (a, b) = (format!("A{}", i + 1), format!("B{}", i + 1));
        let under_root = if s.a_descendant {
            "DESCENDANTS"
        } else {
            "CHILDREN"
        };
        lines.push(format!("ROOT {under_root} {{{a}}}"));
        let under_a = match (s.b_descendant, s.a_extra_child) {
            (true, _) => format!("DESCENDANTS {{{b}}}"),
            (false, true) => format!("CHILDREN {{{b},+}}"),
            (false, false) => format!("CHILDREN {{{b}}}"),
        };
        lines.push(format!(
            "{a} LIKE [{},{},{},.*] and {under_a}",
            s.kinds.0, s.branch.filter_attr, s.branch.filter_op
        ));
        lines.push(format!(
            "{b} LIKE [{},{},count,.*]",
            s.kinds.1, s.branch.group_attr
        ));
    }
    lines.join("\n")
}

/// The operation an action code appends: codes 1-2 are filters, 3-4 group-bys, each
/// pair with different parameters.
fn grow_op(code: u8) -> QueryOp {
    match code {
        1 => QueryOp::filter("country", CompareOp::Eq, Value::str("India")),
        2 => QueryOp::filter("rating", CompareOp::Neq, Value::Int(3)),
        3 => QueryOp::group_by("type", AggFunc::Count, "id"),
        _ => QueryOp::group_by("country", AggFunc::Sum, "duration"),
    }
}

/// Ask the oracle about `(tree, cursor, budget)` twice and compare both answers with a
/// fresh search: the first ask may be a miss, the second must be a memo hit.
fn oracle_agrees(
    oracle: &StructuralOracle,
    ldx: &Ldx,
    tree: &ExplorationTree,
    key: ShapeKey,
    cursor: NodeId,
    budget: usize,
) -> TestCaseResult {
    let fresh = can_complete_structurally(ldx, tree, cursor, budget);
    let case = format!(
        "{} at node {} with budget {budget} under\n{ldx}",
        tree.to_compact_string(),
        cursor.index()
    );
    let first = oracle.can_complete(key.clone());
    prop_assert!(
        first == fresh,
        "first ask: {first} != fresh {fresh}: {case}"
    );
    let memoized = oracle.memoized();
    let second = oracle.can_complete(key);
    prop_assert!(
        second == fresh,
        "second ask: {second} != fresh {fresh}: {case}"
    );
    prop_assert!(oracle.memoized() == memoized, "second ask missed: {case}");
    Ok(())
}

proptest! {
    /// The memoized oracle equals a fresh `can_complete_structurally` on randomly grown
    /// sessions: at every cursor the growth visits, for every node of the final tree as
    /// the cursor, and for the probe keys of a child appended under the cursor (which
    /// the fresh search sees as a real tree with real parameters).
    #[test]
    fn oracle_equals_a_fresh_search(
        branches in prop::collection::vec(shaped_branch_strategy(), 1..3),
        actions in prop::collection::vec(0u8..5, 0..7),
        budget in 0usize..4,
    ) {
        let ldx = parse_ldx(&shaped_ldx_text(&branches)).unwrap();
        prop_assert!(ldx.validate().is_ok());
        let oracle = StructuralOracle::new(&ldx);
        let mut tree = ExplorationTree::new();
        for code in actions {
            if code == 0 {
                tree.back();
            } else {
                tree.push_op(grow_op(code));
            }
            let cursor = tree.current();
            oracle_agrees(&oracle, &ldx, &tree, ShapeKey::new(&tree, cursor, budget), cursor, budget)?;
            for (kind, code) in [(OpKind::Filter, 2), (OpKind::GroupBy, 4)] {
                let mut grown = tree.clone();
                let node = grown.push_op(grow_op(code));
                let key = ShapeKey::new(&tree, cursor, budget).with_child(kind);
                prop_assert_eq!(&key, &ShapeKey::new(&grown, node, budget));
                oracle_agrees(&oracle, &ldx, &grown, key, node, budget)?;
            }
        }
        for node in 0..tree.len() {
            for remaining in 0..=budget {
                let cursor = NodeId(node);
                let key = ShapeKey::new(&tree, cursor, remaining);
                oracle_agrees(&oracle, &ldx, &tree, key, cursor, remaining)?;
            }
        }
    }

    /// Parsing and canonical printing round-trips: reparsing the canonical form yields an
    /// equal query.
    #[test]
    fn parse_print_round_trip(branches in prop::collection::vec(branch_strategy(), 1..3)) {
        let text = ldx_text(&branches);
        let parsed = parse_ldx(&text).unwrap();
        let canonical = parsed.canonical();
        let reparsed = parse_ldx(&canonical).unwrap();
        prop_assert_eq!(parsed.canonical(), reparsed.canonical());
    }

    /// A parsed query always validates and its min_operations equals the number of
    /// declared operation nodes (no `+` markers generated here).
    #[test]
    fn parsed_queries_validate(branches in prop::collection::vec(branch_strategy(), 1..3)) {
        let parsed = parse_ldx(&ldx_text(&branches)).unwrap();
        prop_assert!(parsed.validate().is_ok());
        prop_assert_eq!(parsed.min_operations(), branches.len() * 2);
    }

    /// Structural reduction keeps every node but drops all constraining parameters.
    #[test]
    fn structural_reduction_preserves_node_count(branches in prop::collection::vec(branch_strategy(), 1..3)) {
        let parsed = parse_ldx(&ldx_text(&branches)).unwrap();
        let structural = parsed.structural();
        prop_assert_eq!(structural.specs.len(), parsed.specs.len());
        prop_assert!(structural.operational_specs().is_empty());
    }

    /// Soundness: a tree built to satisfy the query verifies (both full and structural).
    #[test]
    fn compliant_tree_verifies(branches in prop::collection::vec(branch_strategy(), 1..3)) {
        let parsed = parse_ldx(&ldx_text(&branches)).unwrap();
        let tree = compliant_tree(&branches);
        let engine = VerifyEngine::new(parsed);
        prop_assert!(engine.verify_structural(&tree));
        prop_assert!(engine.verify(&tree));
    }

    /// Completeness (negative): an empty session never satisfies a non-empty query, and a
    /// single stray group-by off the root does not satisfy a two-filter structure.
    #[test]
    fn broken_trees_do_not_verify(branches in prop::collection::vec(branch_strategy(), 2..3)) {
        let parsed = parse_ldx(&ldx_text(&branches)).unwrap();
        let engine = VerifyEngine::new(parsed);
        prop_assert!(!engine.verify(&ExplorationTree::new()));

        let mut stray = ExplorationTree::new();
        stray.add_child(NodeId::ROOT, QueryOp::group_by("type", AggFunc::Count, "k"));
        prop_assert!(!engine.verify_structural(&stray));
    }

    /// Dropping the last branch's group-by child breaks structural compliance when the
    /// query required it.
    #[test]
    fn missing_group_by_child_breaks_structure(branches in prop::collection::vec(branch_strategy(), 1..3)) {
        let parsed = parse_ldx(&ldx_text(&branches)).unwrap();
        let engine = VerifyEngine::new(parsed);
        // A tree with only the filters (no group-by children).
        let mut tree = ExplorationTree::new();
        for b in &branches {
            let op = CompareOp::parse(b.filter_op).unwrap();
            tree.add_child(NodeId::ROOT, QueryOp::filter(&b.filter_attr, op, Value::str("x")));
        }
        prop_assert!(!engine.verify_structural(&tree));
    }
}

/// A continuity variable shared across two filters forces the same term.
#[test]
fn continuity_variable_enforced_by_verification() {
    let ldx: Ldx = parse_ldx(
        "ROOT CHILDREN {A1,A2}\n\
         A1 LIKE [F,country,eq,(?<X>.*)]\n\
         A2 LIKE [F,country,neq,(?<X>.*)]",
    )
    .unwrap();
    let engine = VerifyEngine::new(ldx);

    // Same term on both sides: compliant.
    let mut ok = ExplorationTree::new();
    ok.add_child(
        NodeId::ROOT,
        QueryOp::filter("country", CompareOp::Eq, Value::str("India")),
    );
    ok.add_child(
        NodeId::ROOT,
        QueryOp::filter("country", CompareOp::Neq, Value::str("India")),
    );
    assert!(engine.verify(&ok));

    // Different terms: violates the continuity constraint.
    let mut bad = ExplorationTree::new();
    bad.add_child(
        NodeId::ROOT,
        QueryOp::filter("country", CompareOp::Eq, Value::str("India")),
    );
    bad.add_child(
        NodeId::ROOT,
        QueryOp::filter("country", CompareOp::Neq, Value::str("US")),
    );
    assert!(!engine.verify(&bad));
}
