//! Notebook rendering.
//!
//! LINX presents the final exploration session as a scientific (Jupyter-like) notebook
//! (paper §1, Fig. 1e): one cell per query operation in pre-order, each showing the
//! Pandas-style code, a preview of the result, and a short caption. This module renders
//! that notebook as structured cells and as plain text / Markdown.

use linx_dataframe::{DataFrame, Value};
use serde::{Deserialize, Serialize};

use crate::op::QueryOp;
use crate::session::SessionExecutor;
use crate::tree::{ExplorationTree, NodeId};

/// One notebook cell: an operation, its rendered code, result preview, and caption.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NotebookCell {
    /// Which tree node this cell displays.
    pub node: usize,
    /// The depth of the node in the exploration tree (for indentation / narrative).
    pub depth: usize,
    /// The operation.
    pub op: QueryOp,
    /// Pandas-style code line.
    pub code: String,
    /// Plain-text preview of the result view (first rows).
    pub result_preview: String,
    /// Number of rows in the result view.
    pub result_rows: usize,
    /// A short auto-generated caption describing what the cell shows.
    pub caption: String,
}

/// A rendered exploration notebook.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Notebook {
    /// Title shown at the top (dataset + goal).
    pub title: String,
    /// The ordered cells.
    pub cells: Vec<NotebookCell>,
}

impl Notebook {
    /// Render a notebook from an exploration tree executed against a dataset.
    ///
    /// Nodes whose execution failed are rendered with an "invalid operation" preview
    /// rather than dropped, so a notebook always reflects the full session.
    pub fn render(
        title: impl Into<String>,
        executor: &SessionExecutor,
        tree: &ExplorationTree,
    ) -> Notebook {
        let views = executor.execute_tree_lenient(tree);
        let mut cells = Vec::new();
        let mut var_names: std::collections::HashMap<NodeId, String> =
            std::collections::HashMap::new();
        var_names.insert(NodeId::ROOT, "df".to_string());

        for (i, (id, op)) in tree.ops_in_order().into_iter().enumerate() {
            let parent = tree.parent(id).unwrap_or(NodeId::ROOT);
            let input_var = var_names
                .get(&parent)
                .cloned()
                .unwrap_or_else(|| "df".to_string());
            let output_var = format!("view_{}", i + 1);
            var_names.insert(id, output_var.clone());
            let code = op.to_pandas(&input_var, &output_var);
            let (preview, rows) = match views.get(&id) {
                Some(v) => (v.render(6), v.num_rows()),
                None => ("<invalid operation: no result>".to_string(), 0),
            };
            let caption = caption_for(op, views.get(&id), views.get(&parent));
            cells.push(NotebookCell {
                node: id.index(),
                depth: tree.depth(id),
                op: op.clone(),
                code,
                result_preview: preview,
                result_rows: rows,
                caption,
            });
        }
        Notebook {
            title: title.into(),
            cells,
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the notebook has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Render the notebook as Markdown (one section per cell).
    pub fn to_markdown(&self) -> String {
        let mut out = format!("# {}\n\n", self.title);
        for (i, cell) in self.cells.iter().enumerate() {
            out.push_str(&format!("## Cell {} — {}\n\n", i + 1, cell.caption));
            out.push_str("```python\n");
            out.push_str(&cell.code);
            out.push_str("\n```\n\n```\n");
            out.push_str(&cell.result_preview);
            out.push_str("\n```\n\n");
        }
        out
    }

    /// Render the notebook as plain text (used by examples and experiment harnesses).
    pub fn to_text(&self) -> String {
        let mut out = format!("=== {} ===\n", self.title);
        for (i, cell) in self.cells.iter().enumerate() {
            let indent = "  ".repeat(cell.depth.saturating_sub(1));
            out.push_str(&format!("\n{indent}[{}] {}\n", i + 1, cell.caption));
            out.push_str(&format!("{indent}    {}\n", cell.code));
            for line in cell.result_preview.lines().take(8) {
                out.push_str(&format!("{indent}    | {line}\n"));
            }
        }
        out
    }
}

/// Generate a short natural-language caption for a cell.
fn caption_for(op: &QueryOp, view: Option<&DataFrame>, parent: Option<&DataFrame>) -> String {
    match op {
        QueryOp::Filter { attr, op, term } => {
            let kept = view.map(|v| v.num_rows()).unwrap_or(0);
            let total = parent.map(|v| v.num_rows()).unwrap_or(0);
            let share = if total > 0 {
                format!(" ({:.0}% of the input)", 100.0 * kept as f64 / total as f64)
            } else {
                String::new()
            };
            format!("Focus on rows where {attr} {} {term}{share}", op.token())
        }
        QueryOp::GroupBy {
            g_attr,
            agg,
            agg_attr,
        } => {
            let mut caption = format!("Break down {agg}({agg_attr}) by {g_attr}");
            if let Some(v) = view {
                // Mention the top group by aggregate value when it is numeric.
                if let Some(top) = top_group(v) {
                    caption.push_str(&format!(" — led by {top}"));
                }
            }
            caption
        }
    }
}

/// The group key with the largest aggregate value in a two-column aggregate view.
fn top_group(view: &DataFrame) -> Option<String> {
    if view.num_columns() != 2 || view.num_rows() == 0 {
        return None;
    }
    let names = view.column_names();
    let mut best: Option<(f64, Value)> = None;
    for i in 0..view.num_rows() {
        let row = view.row(i);
        if let Some(v) = row[1].as_f64() {
            if best.as_ref().map(|(b, _)| v > *b).unwrap_or(true) {
                best = Some((v, row[0].clone()));
            }
        }
    }
    let (v, key) = best?;
    Some(format!("{} = {} ({})", names[0], key, format_num(v)))
}

fn format_num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e12 {
        format!("{}", v as i64)
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linx_dataframe::filter::CompareOp;
    use linx_dataframe::groupby::AggFunc;

    fn dataset() -> DataFrame {
        DataFrame::from_rows(
            &["country", "type", "duration"],
            vec![
                vec![Value::str("India"), Value::str("Movie"), Value::Int(120)],
                vec![Value::str("India"), Value::str("Movie"), Value::Int(90)],
                vec![Value::str("US"), Value::str("TV Show"), Value::Int(4)],
                vec![Value::str("US"), Value::str("Movie"), Value::Int(100)],
            ],
        )
        .unwrap()
    }

    fn example_tree() -> ExplorationTree {
        let mut t = ExplorationTree::new();
        let f = t.add_child(
            NodeId::ROOT,
            QueryOp::filter("country", CompareOp::Eq, Value::str("India")),
        );
        t.add_child(f, QueryOp::group_by("type", AggFunc::Count, "duration"));
        t
    }

    #[test]
    fn render_produces_one_cell_per_operation() {
        let exec = SessionExecutor::new(dataset());
        let nb = Notebook::render("Netflix — g1", &exec, &example_tree());
        assert_eq!(nb.len(), 2);
        assert!(!nb.is_empty());
        assert_eq!(nb.cells[0].result_rows, 2);
        assert!(nb.cells[0].code.contains("df[df['country'] == 'India']"));
        assert!(nb.cells[1].code.contains("groupby('type')"));
        assert!(nb.cells[1]
            .caption
            .contains("Break down count(duration) by type"));
    }

    #[test]
    fn captions_mention_coverage_and_top_group() {
        let exec = SessionExecutor::new(dataset());
        let nb = Notebook::render("t", &exec, &example_tree());
        assert!(nb.cells[0].caption.contains("50% of the input"));
        assert!(nb.cells[1].caption.contains("led by type = Movie (2)"));
    }

    #[test]
    fn invalid_ops_render_placeholder() {
        let mut tree = ExplorationTree::new();
        tree.push_op(QueryOp::filter("nope", CompareOp::Eq, Value::Int(1)));
        let exec = SessionExecutor::new(dataset());
        let nb = Notebook::render("t", &exec, &tree);
        assert_eq!(nb.len(), 1);
        assert!(nb.cells[0].result_preview.contains("invalid operation"));
    }

    #[test]
    fn markdown_and_text_renderings_contain_cells() {
        let exec = SessionExecutor::new(dataset());
        let nb = Notebook::render("Netflix", &exec, &example_tree());
        let md = nb.to_markdown();
        assert!(md.contains("# Netflix"));
        assert!(md.contains("```python"));
        let txt = nb.to_text();
        assert!(txt.contains("=== Netflix ==="));
        assert!(txt.contains("[1]"));
        assert!(txt.contains("[2]"));
    }

    #[test]
    fn variable_chaining_follows_tree_parents() {
        let mut t = ExplorationTree::new();
        let f = t.add_child(
            NodeId::ROOT,
            QueryOp::filter("country", CompareOp::Eq, Value::str("US")),
        );
        t.add_child(f, QueryOp::group_by("type", AggFunc::Count, "duration"));
        t.add_child(
            NodeId::ROOT,
            QueryOp::filter("country", CompareOp::Neq, Value::str("US")),
        );
        let exec = SessionExecutor::new(dataset());
        let nb = Notebook::render("t", &exec, &t);
        // Cell 2 consumes cell 1's variable; cell 3 goes back to df.
        assert!(nb.cells[1].code.starts_with("view_2 = view_1.groupby"));
        assert!(nb.cells[2].code.contains("df[df['country'] != 'US']"));
    }
}
