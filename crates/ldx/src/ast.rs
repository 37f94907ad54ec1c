//! LDX abstract syntax.
//!
//! An LDX specification query `Q_X` is a conjunction of *single-node specifications*
//! (paper §4.1). Each specification addresses one named node and constrains (a) its
//! position in the exploration tree (`CHILDREN` / `DESCENDANTS`), and/or (b) the query
//! operation it carries (`LIKE [..]`), with continuity variables connecting free
//! parameters across nodes.

use std::collections::BTreeSet;
use std::fmt;

use linx_explore::QueryOp;
use serde::{Deserialize, Serialize};

use crate::pattern::{Bindings, TokenPattern};

/// The canonical name of the root node (the raw dataset). The paper uses both `ROOT`
/// and `BEGIN`; they are normalized to this constant by the parser and builder.
pub const ROOT_NAME: &str = "ROOT";

/// A pattern over an operation's parameter token list, e.g. `[F, country, eq, (?<X>.*)]`.
///
/// The first token constrains the operation *kind* (`F` / `G`), subsequent tokens the
/// parameters; missing trailing tokens match anything (the paper writes `[G,.*]` for
/// "any group-by").
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpPattern {
    /// Token patterns; index 0 is the operation kind.
    pub tokens: Vec<TokenPattern>,
}

impl OpPattern {
    /// Number of parameter slots in a full operation token list (kind + 3 parameters).
    pub const FULL_LEN: usize = 4;

    /// Create a pattern from token patterns.
    pub fn new(tokens: Vec<TokenPattern>) -> Self {
        OpPattern { tokens }
    }

    /// Parse from the bracketed textual form `[F,country,eq,.*]`.
    pub fn parse(text: &str) -> OpPattern {
        let inner = text.trim().trim_start_matches('[').trim_end_matches(']');
        let tokens = split_pattern_params(inner)
            .into_iter()
            .map(|t| TokenPattern::parse(&t))
            .collect();
        OpPattern { tokens }
    }

    /// The pattern over the operation kind (first token), `Any` if unspecified.
    pub fn kind_pattern(&self) -> TokenPattern {
        self.tokens.first().cloned().unwrap_or(TokenPattern::Any)
    }

    /// The pattern for parameter `i` (0 = first parameter after the kind), `Any` if
    /// unspecified.
    pub fn param_pattern(&self, i: usize) -> TokenPattern {
        self.tokens.get(i + 1).cloned().unwrap_or(TokenPattern::Any)
    }

    /// All continuity variables referenced by this pattern.
    pub fn continuity_vars(&self) -> Vec<String> {
        self.tokens
            .iter()
            .filter_map(|t| t.capture_var().map(str::to_string))
            .collect()
    }

    /// The number of *constraining* parameter patterns (not counting the kind), i.e.
    /// the denominator of the operational compliance ratio in Algorithm 2.
    pub fn num_constraining_params(&self) -> usize {
        (0..Self::FULL_LEN - 1)
            .filter(|&i| self.param_pattern(i).is_constraining())
            .count()
    }

    /// Match against an operation's token list. Returns the new continuity bindings on
    /// success.
    pub fn matches_tokens(&self, op_tokens: &[String], bound: &Bindings) -> Option<Bindings> {
        let mut acc = Bindings::new();
        let mut working = bound.clone();
        for i in 0..Self::FULL_LEN {
            let pat = if i == 0 {
                self.kind_pattern()
            } else {
                self.param_pattern(i - 1)
            };
            let token = op_tokens.get(i).map(String::as_str).unwrap_or("");
            let new = pat.matches(token, &working)?;
            for (k, v) in new {
                working.insert(k.clone(), v.clone());
                acc.insert(k, v);
            }
        }
        Some(acc)
    }

    /// Match against a [`QueryOp`].
    pub fn matches_op(&self, op: &QueryOp, bound: &Bindings) -> Option<Bindings> {
        self.matches_tokens(&op.tokens(), bound)
    }

    /// How many of the constraining parameter patterns the operation satisfies (ignoring
    /// continuity bindings). Used by the graded operational reward.
    pub fn count_satisfied_params(&self, op: &QueryOp) -> usize {
        let tokens = op.tokens();
        let empty = Bindings::new();
        (0..Self::FULL_LEN - 1)
            .filter(|&i| {
                let pat = self.param_pattern(i);
                pat.is_constraining()
                    && pat
                        .matches(tokens.get(i + 1).map(String::as_str).unwrap_or(""), &empty)
                        .is_some()
            })
            .count()
    }

    /// A structural reduction of this pattern: the kind constraint is kept, every
    /// parameter becomes a wildcard. (Structure = "which operation types in which
    /// order"; see §5.2.)
    pub fn structural(&self) -> OpPattern {
        OpPattern {
            tokens: vec![strip_capture(self.kind_pattern())],
        }
    }
}

fn strip_capture(p: TokenPattern) -> TokenPattern {
    match p {
        TokenPattern::Capture { inner, .. } => *inner,
        other => other,
    }
}

/// Split the inside of a bracketed pattern on commas, but not commas inside `(...)`.
fn split_pattern_params(inner: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut cur = String::new();
    for c in inner.chars() {
        match c {
            '(' => {
                depth += 1;
                cur.push(c);
            }
            ')' => {
                depth = depth.saturating_sub(1);
                cur.push(c);
            }
            ',' if depth == 0 => out.push(std::mem::take(&mut cur)),
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        out.push(cur);
    }
    out.into_iter().map(|s| s.trim().to_string()).collect()
}

impl fmt::Display for OpPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.tokens.iter().map(|t| t.to_string()).collect();
        write!(f, "[{}]", parts.join(","))
    }
}

/// The `CHILDREN {A, B, +}` constraint: named children plus a minimum count of
/// additional unnamed children.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ChildrenSpec {
    /// Names of required child nodes.
    pub named: Vec<String>,
    /// Minimum number of additional (unnamed) children, from `+` markers.
    pub extra: usize,
}

impl ChildrenSpec {
    /// Minimum number of children the matched tree node must have.
    pub fn min_children(&self) -> usize {
        self.named.len() + self.extra
    }
}

/// A single-node specification.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct NodeSpec {
    /// The named node this specification addresses.
    pub name: String,
    /// `LIKE [..]` operation pattern, if any.
    pub like: Option<OpPattern>,
    /// `CHILDREN {..}` constraint, if any.
    pub children: Option<ChildrenSpec>,
    /// `DESCENDANTS {..}` constraint (named descendants), if any.
    pub descendants: Vec<String>,
}

impl NodeSpec {
    /// Create an empty spec for a named node.
    pub fn named(name: impl Into<String>) -> Self {
        NodeSpec {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Continuity variables referenced by this spec.
    pub fn continuity_vars(&self) -> Vec<String> {
        self.like
            .as_ref()
            .map(|p| p.continuity_vars())
            .unwrap_or_default()
    }
}

impl fmt::Display for NodeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if let Some(like) = &self.like {
            parts.push(format!("LIKE {like}"));
        }
        if let Some(children) = &self.children {
            let mut names = children.named.clone();
            for _ in 0..children.extra {
                names.push("+".to_string());
            }
            parts.push(format!("CHILDREN {{{}}}", names.join(",")));
        }
        if !self.descendants.is_empty() {
            parts.push(format!("DESCENDANTS {{{}}}", self.descendants.join(",")));
        }
        if parts.is_empty() {
            write!(f, "{}", self.name)
        } else {
            write!(f, "{} {}", self.name, parts.join(" and "))
        }
    }
}

/// A complete LDX specification query.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Ldx {
    /// The single-node specifications, in declaration order.
    pub specs: Vec<NodeSpec>,
}

impl Ldx {
    /// Create an LDX query from specs.
    pub fn new(specs: Vec<NodeSpec>) -> Self {
        Ldx { specs }
    }

    /// All named nodes, in declaration order (ROOT included if declared).
    pub fn node_names(&self) -> Vec<&str> {
        self.specs.iter().map(|s| s.name.as_str()).collect()
    }

    /// Named nodes excluding the root.
    pub fn operation_node_names(&self) -> Vec<&str> {
        self.node_names()
            .into_iter()
            .filter(|n| *n != ROOT_NAME)
            .collect()
    }

    /// The set of continuity variables used anywhere in the query.
    pub fn continuity_vars(&self) -> BTreeSet<String> {
        self.specs
            .iter()
            .flat_map(|s| s.continuity_vars())
            .collect()
    }

    /// The spec addressing a given node name.
    pub fn spec(&self, name: &str) -> Option<&NodeSpec> {
        self.specs.iter().find(|s| s.name == name)
    }

    /// The declared parent of a named node (the node whose `CHILDREN` list contains it).
    pub fn declared_parent(&self, name: &str) -> Option<&str> {
        self.specs.iter().find_map(|s| {
            s.children.as_ref().and_then(|c| {
                if c.named.iter().any(|n| n == name) {
                    Some(s.name.as_str())
                } else {
                    None
                }
            })
        })
    }

    /// The declared ancestor of a named node (the node whose `DESCENDANTS` list contains
    /// it), if it has no declared parent.
    pub fn declared_ancestor(&self, name: &str) -> Option<&str> {
        self.specs.iter().find_map(|s| {
            if s.descendants.iter().any(|n| n == name) {
                Some(s.name.as_str())
            } else {
                None
            }
        })
    }

    /// The structural reduction `struct(Q_X)`: tree-shape constraints plus operation
    /// kinds, with every parameter pattern replaced by a wildcard.
    pub fn structural(&self) -> Ldx {
        Ldx {
            specs: self
                .specs
                .iter()
                .map(|s| NodeSpec {
                    name: s.name.clone(),
                    like: s.like.as_ref().map(|p| p.structural()),
                    children: s.children.clone(),
                    descendants: s.descendants.clone(),
                })
                .collect(),
        }
    }

    /// The operational specifications `opr(Q_X)`: for every named node with constraining
    /// parameters, its name and operation pattern.
    pub fn operational_specs(&self) -> Vec<(&str, &OpPattern)> {
        self.specs
            .iter()
            .filter_map(|s| {
                s.like
                    .as_ref()
                    .filter(|p| p.num_constraining_params() > 0)
                    .map(|p| (s.name.as_str(), p))
            })
            .collect()
    }

    /// Number of operation nodes the specification requires at minimum (named operation
    /// nodes plus `+` markers). Used to size the CDRL episode length.
    pub fn min_operations(&self) -> usize {
        let named = self.operation_node_names().len();
        let extras: usize = self
            .specs
            .iter()
            .filter_map(|s| s.children.as_ref().map(|c| c.extra))
            .sum();
        named + extras
    }

    /// Canonical textual form (stable ordering; used by the lev² metric and by tests).
    pub fn canonical(&self) -> String {
        self.specs
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Basic well-formedness checks: the root is declared first (if declared), every
    /// node named in a CHILDREN/DESCENDANTS list has a spec or is implicitly declared,
    /// and no node is its own ancestor.
    pub fn validate(&self) -> Result<(), String> {
        let declared: BTreeSet<&str> = self.node_names().into_iter().collect();
        for s in &self.specs {
            if let Some(children) = &s.children {
                for c in &children.named {
                    if c == &s.name {
                        return Err(format!("node {} lists itself as a child", s.name));
                    }
                    if !declared.contains(c.as_str()) {
                        return Err(format!("child {c} of {} has no specification", s.name));
                    }
                }
            }
            for d in &s.descendants {
                if !declared.contains(d.as_str()) {
                    return Err(format!("descendant {d} of {} has no specification", s.name));
                }
            }
        }
        // Cycle check on the declared parent/ancestor relation.
        for name in self.node_names() {
            let mut cur = Some(name);
            let mut hops = 0;
            while let Some(c) = cur {
                hops += 1;
                if hops > self.specs.len() + 1 {
                    return Err(format!("cycle in structural declarations involving {name}"));
                }
                cur = self
                    .declared_parent(c)
                    .or_else(|| self.declared_ancestor(c));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Ldx {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.canonical())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linx_dataframe::filter::CompareOp;
    use linx_dataframe::groupby::AggFunc;
    use linx_dataframe::Value;

    #[test]
    fn op_pattern_parse_and_match() {
        let p = OpPattern::parse("[F, 'country', eq, (?<X>.*)]");
        let op = QueryOp::filter("country", CompareOp::Eq, Value::str("India"));
        let binds = p.matches_op(&op, &Bindings::new()).unwrap();
        assert_eq!(binds.get("X").map(String::as_str), Some("India"));

        let wrong_kind = QueryOp::group_by("country", AggFunc::Count, "x");
        assert!(p.matches_op(&wrong_kind, &Bindings::new()).is_none());

        let wrong_attr = QueryOp::filter("rating", CompareOp::Eq, Value::str("India"));
        assert!(p.matches_op(&wrong_attr, &Bindings::new()).is_none());
    }

    #[test]
    fn op_pattern_short_patterns_match_any_suffix() {
        let p = OpPattern::parse("[G,.*]");
        let op = QueryOp::group_by("rating", AggFunc::Count, "show_id");
        assert!(p.matches_op(&op, &Bindings::new()).is_some());
        let f = QueryOp::filter("rating", CompareOp::Eq, Value::Int(1));
        assert!(p.matches_op(&f, &Bindings::new()).is_none());
    }

    #[test]
    fn continuity_bindings_constrain_later_matches() {
        let p1 = OpPattern::parse("[F,country,eq,(?<X>.*)]");
        let p2 = OpPattern::parse("[F,country,neq,(?<X>.*)]");
        let op1 = QueryOp::filter("country", CompareOp::Eq, Value::str("India"));
        let op2_ok = QueryOp::filter("country", CompareOp::Neq, Value::str("India"));
        let op2_bad = QueryOp::filter("country", CompareOp::Neq, Value::str("US"));

        let binds = p1.matches_op(&op1, &Bindings::new()).unwrap();
        assert!(p2.matches_op(&op2_ok, &binds).is_some());
        assert!(p2.matches_op(&op2_bad, &binds).is_none());
    }

    #[test]
    fn constraining_param_counts() {
        let p = OpPattern::parse("[F,country,eq,.*]");
        assert_eq!(p.num_constraining_params(), 2);
        let p = OpPattern::parse("[G,(?<X>.*),.*]");
        assert_eq!(p.num_constraining_params(), 0);
        let p = OpPattern::parse("[G,'country',SUM|AVG,*]");
        assert_eq!(p.num_constraining_params(), 2);
    }

    #[test]
    fn count_satisfied_params_partial_credit() {
        let p = OpPattern::parse("[F,country,eq,India]");
        let exact = QueryOp::filter("country", CompareOp::Eq, Value::str("India"));
        let close = QueryOp::filter("country", CompareOp::Neq, Value::str("India"));
        let far = QueryOp::filter("rating", CompareOp::Gt, Value::Int(3));
        assert_eq!(p.count_satisfied_params(&exact), 3);
        assert_eq!(p.count_satisfied_params(&close), 2);
        assert_eq!(p.count_satisfied_params(&far), 0);
    }

    #[test]
    fn structural_reduction_keeps_only_kind() {
        let p = OpPattern::parse("[F,country,eq,(?<X>.*)]");
        let s = p.structural();
        assert_eq!(s.to_string(), "[F]");
        assert_eq!(s.num_constraining_params(), 0);
    }

    fn example_ldx() -> Ldx {
        // The Fig. 1c query: root has two filter children on country (one eq / one neq,
        // same term), each with a group-by child sharing column and aggregation.
        Ldx::new(vec![
            NodeSpec {
                name: ROOT_NAME.into(),
                children: Some(ChildrenSpec {
                    named: vec!["B1".into(), "B2".into()],
                    extra: 0,
                }),
                ..Default::default()
            },
            NodeSpec {
                name: "B1".into(),
                like: Some(OpPattern::parse("[F,country,eq,(?<X>.*)]")),
                children: Some(ChildrenSpec {
                    named: vec!["C1".into()],
                    extra: 0,
                }),
                ..Default::default()
            },
            NodeSpec {
                name: "C1".into(),
                like: Some(OpPattern::parse("[G,(?<COL>.*),(?<AGG>.*),.*]")),
                ..Default::default()
            },
            NodeSpec {
                name: "B2".into(),
                like: Some(OpPattern::parse("[F,country,neq,(?<X>.*)]")),
                children: Some(ChildrenSpec {
                    named: vec!["C2".into()],
                    extra: 0,
                }),
                ..Default::default()
            },
            NodeSpec {
                name: "C2".into(),
                like: Some(OpPattern::parse("[G,(?<COL>.*),(?<AGG>.*),.*]")),
                ..Default::default()
            },
        ])
    }

    #[test]
    fn ldx_accessors() {
        let ldx = example_ldx();
        assert_eq!(ldx.node_names(), vec![ROOT_NAME, "B1", "C1", "B2", "C2"]);
        assert_eq!(ldx.operation_node_names().len(), 4);
        assert_eq!(
            ldx.continuity_vars(),
            ["AGG", "COL", "X"].iter().map(|s| s.to_string()).collect()
        );
        assert_eq!(ldx.declared_parent("B1"), Some(ROOT_NAME));
        assert_eq!(ldx.declared_parent("C2"), Some("B2"));
        assert_eq!(ldx.declared_parent(ROOT_NAME), None);
        assert_eq!(ldx.min_operations(), 4);
        assert!(ldx.validate().is_ok());
    }

    #[test]
    fn structural_and_operational_split() {
        let ldx = example_ldx();
        let s = ldx.structural();
        assert_eq!(s.specs.len(), 5);
        assert!(s.operational_specs().is_empty());
        // Original operational specs: B1, B2 have constraining params (country + eq/neq);
        // C1/C2 have only captures over wildcards.
        let opr = ldx.operational_specs();
        assert_eq!(opr.len(), 2);
        assert_eq!(opr[0].0, "B1");
    }

    #[test]
    fn validation_rejects_undeclared_children_and_cycles() {
        let bad = Ldx::new(vec![NodeSpec {
            name: ROOT_NAME.into(),
            children: Some(ChildrenSpec {
                named: vec!["A".into()],
                extra: 0,
            }),
            ..Default::default()
        }]);
        assert!(bad.validate().is_err());

        let cyclic = Ldx::new(vec![
            NodeSpec {
                name: "A".into(),
                children: Some(ChildrenSpec {
                    named: vec!["B".into()],
                    extra: 0,
                }),
                ..Default::default()
            },
            NodeSpec {
                name: "B".into(),
                children: Some(ChildrenSpec {
                    named: vec!["A".into()],
                    extra: 0,
                }),
                ..Default::default()
            },
        ]);
        assert!(cyclic.validate().is_err());
    }

    #[test]
    fn canonical_display_is_stable() {
        let ldx = example_ldx();
        let text = ldx.canonical();
        assert!(text.starts_with("ROOT CHILDREN {B1,B2}"));
        assert!(text.contains("B1 LIKE [F,country,eq,(?<X>.*)] and CHILDREN {C1}"));
    }
}
