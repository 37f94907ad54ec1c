//! `linx` — the end-to-end LINX system (paper §1–§3): language-driven, goal-oriented
//! automated data exploration.
//!
//! Given a tabular dataset and an analytical goal described in natural language, LINX
//!
//! 1. derives a set of **LDX exploration specifications** from the goal (the
//!    `linx-nl2ldx` pipeline — NL → PyLDX template → LDX), and
//! 2. runs the **CDRL modular ADE engine** (`linx-cdrl`) to generate an exploration
//!    session that maximizes the generic exploration utility while complying with the
//!    derived specifications, and
//! 3. renders the session as a notebook (`linx-explore`).
//!
//! These steps run in [`engine::pipeline::run_exploration`], the same code the
//! serving engine's workers run for every request: [`Linx`] is a thin,
//! single-request call into it over a fresh [`engine::DatasetContext`]. To serve many
//! requests (caching, coalescing, admission control, batches), use
//! [`engine::Router`].
//!
//! # Quickstart
//!
//! ```
//! use linx::{Linx, LinxConfig};
//! use linx_data::{generate, DatasetKind, ScaleConfig};
//!
//! // A small synthetic Netflix-like dataset (see `linx-data` for the full generators).
//! let dataset = generate(DatasetKind::Netflix, ScaleConfig { rows: Some(400), seed: 7 });
//!
//! let mut config = LinxConfig::default();
//! config.cdrl.episodes = 60; // keep the doctest fast; the default is higher
//!
//! let linx = Linx::new(config);
//! let outcome = linx.explore(
//!     &dataset,
//!     "netflix",
//!     "Find a country with different viewing habits than the rest of the world",
//! );
//!
//! assert!(outcome.notebook.len() >= 2);
//! println!("{}", outcome.notebook.to_text());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use linx_cdrl::{CdrlConfig, TrainOutcome};
use linx_dataframe::DataFrame;
use linx_engine::pipeline::{run_exploration, DatasetContext, Spec};
use linx_explore::Notebook;
use linx_ldx::Ldx;
use linx_nl2ldx::{DerivationResult, SpecDeriver};

/// The sharded, concurrent, cache-aware exploration service built on this pipeline.
///
/// Its front door, [`engine::Router`] (one shard or many, with
/// [`engine::Router::run_batch`] for many goals over one dataset), lives in the
/// `linx-engine` crate and is re-exported here so `linx` remains the single
/// dependency an application needs.
pub use linx_engine as engine;
pub use linx_engine::{
    EngineConfig, ExploreRequest, ExploreResponse, Router, RouterConfig, TenantId,
};

/// The result of one end-to-end exploration request: the derivation (meta-goal,
/// PyLDX template, LDX), the CDRL training outcome, the rendered notebook and the
/// narrated insights. This is the pipeline's own outcome type,
/// [`engine::pipeline::Exploration`].
pub use linx_engine::pipeline::Exploration as LinxOutcome;

/// Configuration of the end-to-end system.
#[derive(Debug, Clone, Default)]
pub struct LinxConfig {
    /// CDRL engine configuration (variant, reward weights, training budget).
    pub cdrl: CdrlConfig,
    /// Number of dataset rows included as the data sample for schema/value linking
    /// (the paper's prompts include the first five rows; value linking benefits from a
    /// slightly larger sample).
    pub sample_rows: usize,
}

impl LinxConfig {
    /// A configuration with a reduced training budget for tests and demos.
    pub fn fast() -> Self {
        LinxConfig {
            cdrl: CdrlConfig {
                episodes: 80,
                ..CdrlConfig::default()
            },
            sample_rows: 200,
        }
    }
}

/// The LINX system facade.
#[derive(Debug, Clone, Default)]
pub struct Linx {
    config: LinxConfig,
}

impl Linx {
    /// Create a system with the given configuration.
    pub fn new(config: LinxConfig) -> Self {
        let mut config = config;
        if config.sample_rows == 0 {
            config.sample_rows = 200;
        }
        Linx { config }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &LinxConfig {
        &self.config
    }

    /// Step 1 only: derive LDX specifications for a goal over a dataset.
    pub fn derive_specs(
        &self,
        dataset: &DataFrame,
        dataset_name: &str,
        goal: &str,
    ) -> DerivationResult {
        let sample = dataset.head(self.config.sample_rows.max(5));
        SpecDeriver::new().derive(goal, dataset_name, &dataset.schema(), Some(&sample))
    }

    /// Step 2 only: run the CDRL engine for explicit LDX specifications and render the
    /// resulting notebook.
    pub fn explore_with_ldx(
        &self,
        dataset: &DataFrame,
        ldx: Ldx,
        title: &str,
    ) -> (TrainOutcome, Notebook) {
        // A given spec skips derivation and brings its own title: nothing reads the
        // dataset name, so the title stands in for it.
        let outcome = self.run(dataset, title, Spec::Ldx { ldx, title });
        (outcome.training, outcome.notebook)
    }

    /// The full pipeline: goal → specifications → compliant exploration session →
    /// notebook.
    pub fn explore(&self, dataset: &DataFrame, dataset_name: &str, goal: &str) -> LinxOutcome {
        self.run(dataset, dataset_name, Spec::Goal(goal))
    }

    /// Run [`run_exploration`] to completion over a context built for this call.
    fn run(&self, dataset: &DataFrame, dataset_name: &str, spec: Spec<'_>) -> LinxOutcome {
        let ctx = DatasetContext::new(
            dataset,
            dataset_name,
            self.config.sample_rows,
            self.config.cdrl.term_slots,
        );
        run_exploration(
            &ctx,
            spec,
            self.config.cdrl.clone(),
            self.config.sample_rows,
            &|| false,
        )
        .expect("a never-cancelled exploration runs to completion")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linx_data::{generate, DatasetKind, ScaleConfig};

    fn netflix() -> DataFrame {
        generate(
            DatasetKind::Netflix,
            ScaleConfig {
                rows: Some(600),
                seed: 3,
            },
        )
    }

    #[test]
    fn derive_specs_matches_the_running_example() {
        let linx = Linx::new(LinxConfig::fast());
        let d = linx.derive_specs(
            &netflix(),
            "netflix",
            "Find a country with different viewing habits than the rest of the world",
        );
        assert_eq!(d.params.attr, "country");
        assert!(d.ldx.canonical().contains("[F,country,eq,(?<X>.*)]"));
        assert!(d.pyldx.render().contains("pd.read_csv"));
    }

    #[test]
    fn end_to_end_produces_a_compliant_notebook() {
        let mut config = LinxConfig::fast();
        config.cdrl.episodes = 350;
        let linx = Linx::new(config);
        let outcome = linx.explore(
            &netflix(),
            "netflix",
            "Examine characteristics of titles from India",
        );
        assert!(outcome.training.best_structural);
        assert!(outcome.notebook.len() >= 2);
        let text = outcome.notebook.to_text();
        assert!(text.contains("India") || text.contains("country"));
    }

    #[test]
    fn explore_with_explicit_ldx_skips_derivation() {
        let linx = Linx::new(LinxConfig::fast());
        let ldx = linx_ldx::parse_ldx(
            "ROOT CHILDREN {A1}\nA1 LIKE [F,type,eq,Movie] and CHILDREN {B1}\nB1 LIKE [G,.*]",
        )
        .unwrap();
        let (outcome, notebook) = linx.explore_with_ldx(&netflix(), ldx, "manual spec");
        assert!(outcome.best_tree.num_ops() >= 1);
        assert_eq!(notebook.title, "manual spec");
    }
}
