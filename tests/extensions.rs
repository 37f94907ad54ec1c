//! Integration tests for the extension crates built on top of the core pipeline:
//! visualization recommendations (`linx-viz`), spelled-out insight narratives and
//! Jupyter export (`linx-explore`), and post-training parameter refinement
//! (`linx-cdrl::refine`). These exercise the public APIs end-to-end on generated data.

use linx::{Linx, LinxConfig};
use linx_cdrl::{refine_session, CdrlConfig, TermInventory};
use linx_data::{generate, DatasetKind, ScaleConfig};
use linx_dataframe::StatsCache;
use linx_explore::{narrate, to_ipynb, to_ipynb_string, ExplorationReward};
use linx_ldx::VerifyEngine;
use linx_viz::{recommend_session, to_vega_lite, Mark};

fn netflix(rows: usize) -> linx_dataframe::DataFrame {
    generate(
        DatasetKind::Netflix,
        ScaleConfig {
            rows: Some(rows),
            seed: 9,
        },
    )
}

fn run_linx(goal: &str, episodes: usize) -> (linx::LinxOutcome, linx_dataframe::DataFrame) {
    let dataset = netflix(1500);
    let linx = Linx::new(LinxConfig {
        cdrl: CdrlConfig {
            episodes,
            seed: 7,
            ..CdrlConfig::default()
        },
        sample_rows: 200,
    });
    let outcome = linx.explore(&dataset, "netflix", goal);
    (outcome, dataset)
}

#[test]
fn viz_recommends_a_chart_for_every_session_cell() {
    let (outcome, dataset) = run_linx(
        "Find a country with different viewing habits than the rest of the world",
        150,
    );
    let cells = recommend_session(&dataset, &outcome.training.best_tree);
    assert_eq!(cells.len(), outcome.training.best_tree.num_ops());
    // Every valid cell has at least one chart, and group-by cells recommend a bar/line.
    for cell in &cells {
        assert!(!cell.charts.is_empty(), "cell {} has no charts", cell.node);
        let best = &cell.charts[0];
        // The top chart's Vega-Lite export is well-formed.
        let vl = to_vega_lite(best);
        assert_eq!(vl["mark"], best.mark.vega_name());
        assert!(vl["data"]["values"].is_array());
    }
    // At least one bar chart somewhere in the notebook.
    assert!(cells
        .iter()
        .flat_map(|c| &c.charts)
        .any(|c| c.mark == Mark::Bar));
}

#[test]
fn narrative_and_ipynb_export_are_consistent_with_the_notebook() {
    let (outcome, dataset) = run_linx("Examine characteristics of titles from India", 150);
    let narrative = narrate(&dataset, &outcome.training.best_tree);

    // The ipynb has a code cell per notebook cell plus markdown cells.
    let doc = to_ipynb(&outcome.notebook, Some(&narrative));
    let cells = doc["cells"].as_array().unwrap();
    let code_cells = cells.iter().filter(|c| c["cell_type"] == "code").count();
    assert_eq!(code_cells, outcome.notebook.len());
    assert_eq!(doc["nbformat"], 4);

    // The string export parses back as JSON.
    let s = to_ipynb_string(&outcome.notebook, Some(&outcome.narrative));
    let parsed: serde_json::Value = serde_json::from_str(&s).unwrap();
    assert_eq!(parsed["metadata"]["linx"]["generator"], "linx-rs");
}

#[test]
fn refinement_keeps_compliance_and_does_not_lower_utility() {
    let (outcome, dataset) = run_linx(
        "Find a country with different viewing habits than the rest of the world",
        150,
    );
    // The trainer already refined; re-refining the best tree is idempotent-ish: it stays
    // compliant and the utility does not drop.
    let engine = VerifyEngine::new(outcome.derivation.ldx.clone());
    if engine.verify(&outcome.training.best_tree) {
        let terms = TermInventory::build(&dataset, 12, &StatsCache::default());
        let reward = ExplorationReward::default();
        let refined = refine_session(
            &outcome.training.best_tree,
            &dataset,
            &engine,
            &terms,
            &reward,
        );
        assert!(
            engine.verify(&refined),
            "refinement must preserve compliance"
        );
        let exec = linx_explore::SessionExecutor::new(dataset.clone());
        assert!(
            reward.session_score(&exec, &refined)
                >= reward.session_score(&exec, &outcome.training.best_tree) - 1e-9
        );
    }
}

#[test]
fn end_to_end_outcome_exposes_all_extension_outputs() {
    let (outcome, _) = run_linx("Survey the rating of the titles", 120);
    // The outcome carries the derivation, training result, notebook, and narrative.
    assert!(!outcome.derivation.ldx.canonical().is_empty());
    assert!(!outcome.notebook.is_empty());
    // Narrative is present (possibly empty headline fallback) and renders to markdown.
    let md = outcome.narrative.to_markdown();
    assert!(md.is_empty() || md.contains('*') || !outcome.narrative.headline.is_empty());
}
