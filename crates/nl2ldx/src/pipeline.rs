//! The specification-derivation pipeline: analytical goal → meta-goal intent → schema
//! linking → PyLDX template → LDX (the paper's NL2PD2LDX route).

use linx_dataframe::{DataFrame, Schema};
use linx_ldx::Ldx;
use serde::{Deserialize, Serialize};

use crate::linker::{link, LinkedGoal};
use crate::metagoal::{MetaGoal, TemplateParams};
use crate::pyldx::PyLdx;

/// The outcome of deriving specifications for one analytical goal.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DerivationResult {
    /// The classified meta-goal (intent).
    pub meta_goal: MetaGoal,
    /// The schema-linking result.
    pub linked: LinkedGoal,
    /// The parameters filled into the meta-goal templates.
    pub params: TemplateParams,
    /// The PyLDX intermediate program (Fig. 1b).
    pub pyldx: PyLdx,
    /// The derived LDX specification (Fig. 1c).
    pub ldx: Ldx,
}

impl DerivationResult {
    /// The record of a specification written by hand rather than derived from a
    /// goal: nothing was classified or linked, so the links, parameters and PyLDX
    /// are empty and the meta-goal is the generic fallback
    /// [`MetaGoal::ExploreThroughSubset`].
    pub fn given(ldx: Ldx) -> Self {
        DerivationResult {
            meta_goal: MetaGoal::ExploreThroughSubset,
            linked: LinkedGoal::default(),
            params: TemplateParams::default(),
            pyldx: PyLdx::default(),
            ldx,
        }
    }
}

/// Derives LDX specifications from natural-language goals.
#[derive(Debug, Clone, Default)]
pub struct SpecDeriver;

impl SpecDeriver {
    /// Create a deriver.
    pub fn new() -> Self {
        SpecDeriver
    }

    /// Classify the analytical goal into one of the eight meta-goals by keyword cues
    /// (falling back to "Explore through a subset" when nothing matches, the most
    /// generic template).
    pub fn classify(&self, goal: &str) -> MetaGoal {
        let text = goal.to_lowercase();
        let mut best = (MetaGoal::ExploreThroughSubset, 0usize);
        for meta in MetaGoal::ALL {
            let mut score = 0usize;
            for (rank, kw) in meta.keywords().iter().enumerate() {
                if text.contains(kw) {
                    // Earlier keywords are more indicative.
                    score += meta.keywords().len() - rank + 2;
                }
            }
            if score > best.1 {
                best = (meta, score);
            }
        }
        best.0
    }

    /// Derive LDX specifications for a goal over a dataset (the chained NL2PD2LDX
    /// route). `sample` is the small data preview included in the prompt; it improves
    /// value linking exactly as in the paper's prompt design.
    pub fn derive(
        &self,
        goal: &str,
        dataset_name: &str,
        schema: &Schema,
        sample: Option<&DataFrame>,
    ) -> DerivationResult {
        let meta_goal = self.classify(goal);
        let linked = link(goal, schema, sample);
        let params = self.fill_params(goal, meta_goal, schema, &linked);
        let ldx = meta_goal.ldx_template(&params);
        let pyldx = self.pyldx_for(meta_goal, dataset_name, &params);
        DerivationResult {
            meta_goal,
            linked,
            params,
            pyldx,
            ldx,
        }
    }

    /// Infer template parameters from the linked mentions, falling back to sensible
    /// schema-driven defaults when the goal under-specifies them.
    fn fill_params(
        &self,
        goal: &str,
        meta: MetaGoal,
        schema: &Schema,
        linked: &LinkedGoal,
    ) -> TemplateParams {
        let categorical_default = schema
            .categorical_columns()
            .first()
            .map(|s| s.to_string())
            .unwrap_or_else(|| {
                schema
                    .names()
                    .first()
                    .map(|s| s.to_string())
                    .unwrap_or_default()
            });
        // Prefer the attribute a linked value belongs to (the subset-defining attribute),
        // then explicit attribute mentions, then the default categorical column.
        let attr = linked
            .values
            .first()
            .map(|(col, _)| col.clone())
            .or_else(|| linked.attributes.first().cloned())
            .unwrap_or_else(|| categorical_default.clone());
        let op = linked
            .operators
            .first()
            .cloned()
            .unwrap_or_else(|| "eq".to_string());
        let term = linked
            .values
            .iter()
            .find(|(col, _)| *col == attr)
            .map(|(_, v)| v.clone())
            .or_else(|| linked.numbers.first().map(|n| format_number(*n)))
            .unwrap_or_else(|| "(?<X>.*)".to_string());
        let second_attr = linked.attributes.iter().find(|a| **a != attr).cloned();
        let domain = goal
            .split_whitespace()
            .find(|w| w.ends_with('s') && w.len() > 4)
            .unwrap_or("records")
            .trim_matches(|c: char| !c.is_alphanumeric())
            .to_lowercase();
        let _ = meta;
        TemplateParams {
            domain,
            attr,
            op,
            term,
            second_attr,
        }
    }

    /// The PyLDX program mirroring a meta-goal's LDX skeleton.
    fn pyldx_for(&self, meta: MetaGoal, dataset: &str, p: &TemplateParams) -> PyLdx {
        let attr = p.attr.as_str();
        let term = if p.term.starts_with("(?<") {
            None
        } else {
            Some(p.term.as_str())
        };
        let op = if p.op.is_empty() { "eq" } else { p.op.as_str() };
        match meta {
            MetaGoal::IdentifyUncommonEntity | MetaGoal::DescribeUnusualSubset => {
                PyLdx::new(dataset)
                    .filter("subset", "df", attr, op, term)
                    .group_agg("subset_agg", "subset", None, None, None)
                    .filter("rest", "df", attr, crate::metagoal::inverse_op(op), term)
                    .group_agg("rest_agg", "rest", None, None, None)
            }
            MetaGoal::ExaminePhenomenon => PyLdx::new(dataset)
                .filter("subset", "df", attr, op, term)
                .group_agg("agg1", "subset", None, None, None)
                .group_agg("agg2", "subset", None, None, None),
            MetaGoal::DiscoverContrastingSubsets => PyLdx::new(dataset)
                .filter("first", "df", attr, "eq", None)
                .group_agg("first_agg", "first", None, None, None)
                .filter("second", "df", attr, "eq", None)
                .group_agg("second_agg", "second", None, None, None)
                .filter("third", "df", attr, "eq", None)
                .group_agg("third_agg", "third", None, None, None),
            MetaGoal::SurveyAttribute => PyLdx::new(dataset)
                .group_agg("by_first", "df", p.second_attr.as_deref(), None, Some(attr))
                .group_agg("by_second", "df", None, None, Some(attr)),
            MetaGoal::InvestigateAspects => PyLdx::new(dataset)
                .group_agg("overview", "df", Some(attr), None, None)
                .filter("subset", "df", attr, op, None)
                .group_agg("detail", "subset", None, None, None),
            MetaGoal::ExploreThroughSubset | MetaGoal::HighlightSubgroups => PyLdx::new(dataset)
                .filter("focus", "df", attr, op, term)
                .group_agg("agg1", "focus", None, None, None)
                .group_agg("agg2", "focus", None, None, None),
        }
    }
}

fn format_number(n: f64) -> String {
    if n.fract() == 0.0 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linx_data::{generate, DatasetKind, ScaleConfig};
    use linx_metricsless::*;

    // A tiny shim so the tests below read naturally without adding a dependency on the
    // metrics crate (which would be circular in the workspace graph).
    mod linx_metricsless {
        pub fn contains_pattern(ldx: &linx_ldx::Ldx, needle: &str) -> bool {
            ldx.canonical().contains(needle)
        }
    }

    fn netflix_sample() -> linx_dataframe::DataFrame {
        generate(
            DatasetKind::Netflix,
            ScaleConfig {
                rows: Some(400),
                seed: 5,
            },
        )
    }

    #[test]
    fn classifies_the_eight_meta_goal_phrasings() {
        let d = SpecDeriver::new();
        assert_eq!(
            d.classify("Find an atypical country"),
            MetaGoal::IdentifyUncommonEntity
        );
        assert_eq!(
            d.classify("Examine characteristics of successful TV shows"),
            MetaGoal::ExaminePhenomenon
        );
        assert_eq!(
            d.classify("Find three actors with contrasting traits"),
            MetaGoal::DiscoverContrastingSubsets
        );
        assert_eq!(d.classify("Survey apps' price"), MetaGoal::SurveyAttribute);
        assert_eq!(
            d.classify("Highlight distinctive characteristics of summer-month flights"),
            MetaGoal::DescribeUnusualSubset
        );
        assert_eq!(
            d.classify("Investigate reasons for delay"),
            MetaGoal::InvestigateAspects
        );
        assert_eq!(
            d.classify(
                "Analyze the dataset, with a focus on flights affected by weather-related delays"
            ),
            MetaGoal::ExploreThroughSubset
        );
        assert_eq!(
            d.classify("Highlight interesting sub-groups of apps with at least 1M installs"),
            MetaGoal::HighlightSubgroups
        );
    }

    #[test]
    fn unmatched_goals_fall_back_to_generic_exploration() {
        let d = SpecDeriver::new();
        assert_eq!(
            d.classify("Just look around"),
            MetaGoal::ExploreThroughSubset
        );
    }

    #[test]
    fn derives_the_running_example_specification() {
        let d = SpecDeriver::new();
        let sample = netflix_sample();
        let result = d.derive(
            "Find a country with different viewing habits than the rest of the world",
            "netflix",
            &sample.schema(),
            Some(&sample),
        );
        assert_eq!(result.meta_goal, MetaGoal::IdentifyUncommonEntity);
        assert_eq!(result.params.attr, "country");
        assert!(contains_pattern(&result.ldx, "[F,country,eq,(?<X>.*)]"));
        assert!(contains_pattern(&result.ldx, "[F,country,neq,(?<X>.*)]"));
        assert!(result.pyldx.render().contains("df['country']"));
        assert!(result.ldx.validate().is_ok());
    }

    #[test]
    fn derives_a_subset_goal_with_value_linking() {
        let d = SpecDeriver::new();
        let sample = netflix_sample();
        let result = d.derive(
            "Examine characteristics of titles from India",
            "netflix",
            &sample.schema(),
            Some(&sample),
        );
        assert_eq!(result.meta_goal, MetaGoal::ExaminePhenomenon);
        assert_eq!(result.params.attr, "country");
        assert_eq!(result.params.term, "India");
        assert!(contains_pattern(&result.ldx, "[F,country,eq,India]"));
    }

    #[test]
    fn derives_numeric_threshold_goals() {
        let d = SpecDeriver::new();
        let sample = generate(
            DatasetKind::PlayStore,
            ScaleConfig {
                rows: Some(400),
                seed: 2,
            },
        );
        let result = d.derive(
            "Highlight interesting sub-groups of apps with at least 1000000 installs",
            "play_store",
            &sample.schema(),
            Some(&sample),
        );
        assert_eq!(result.meta_goal, MetaGoal::HighlightSubgroups);
        assert_eq!(result.params.attr, "installs");
        assert_eq!(result.params.op, "ge");
        assert_eq!(result.params.term, "1000000");
    }

    #[test]
    fn pyldx_mirrors_the_ldx_structure() {
        let d = SpecDeriver::new();
        let sample = netflix_sample();
        let result = d.derive(
            "Find an atypical country among the titles",
            "netflix",
            &sample.schema(),
            Some(&sample),
        );
        // 1 read_csv + 4 operation statements mirroring 4 LDX operation nodes.
        assert_eq!(result.pyldx.statements.len(), 5);
        assert_eq!(result.ldx.min_operations(), 4);
        let compiled = result.pyldx.compile().unwrap();
        assert_eq!(compiled.min_operations(), 4);
    }
}
