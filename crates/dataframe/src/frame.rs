//! The [`DataFrame`]: a collection of equal-length named columns plus the query
//! operations LINX sessions are made of (filter, group-and-aggregate).
//!
//! # Selection views
//!
//! Row-subsetting operations — [`DataFrame::filter`], [`DataFrame::take`],
//! [`DataFrame::head`] — are **zero-copy**: they return a frame whose columns share
//! the parent's cell storage under a shared row selection instead of gathering cells
//! (see [`crate::column`]). Every consumer (group-by, histograms,
//! distinct values, row/value access, aggregates) resolves through the selection, and
//! chains of views stay one indirection deep: composing a view of a view flattens the
//! selections. [`DataFrame::materialize`] produces a contiguous frame for the few
//! places that genuinely need one.
//!
//! [`DataFrame::fingerprint`] hashes cells *through the selection in row order*, so a
//! view's fingerprint is bit-identical to its materialized equivalent. It is taken of
//! root datasets — routing, the engine's request keys and disk tier — and of no view:
//! the [`crate::StatsCache`] keys a view's columns by their storage id and the digest
//! of the view's selection, computed once when the selection is built.

use std::fmt;
use std::sync::{Arc, OnceLock};

use crate::column::{Column, Selection};
use crate::error::{DataFrameError, Result};
use crate::filter::Predicate;
use crate::groupby::{AggFunc, Groups};
use crate::schema::Schema;
use crate::stats::Histogram;
use crate::value::Value;

/// An immutable, in-memory columnar table — possibly a zero-copy selection view over
/// another frame's storage (see the module docs).
///
/// Cloning a `DataFrame` is cheap: columns are shared behind [`Arc`]s, which matters
/// because the CDRL engine materializes thousands of intermediate query-result views per
/// training episode.
#[derive(Debug, Clone)]
pub struct DataFrame {
    columns: Vec<Arc<Column>>,
    /// Memoized content fingerprint. A frame is immutable after construction, so the
    /// first computed value stays valid; clones share it, so a dataset is scanned once
    /// however often it is routed or keyed.
    fp: Arc<OnceLock<u64>>,
}

impl DataFrame {
    /// Build a dataframe from columns. All columns must have the same length and
    /// distinct names.
    pub fn new(columns: Vec<Column>) -> Result<Self> {
        let expected = columns.first().map(|c| c.len()).unwrap_or(0);
        for (i, c) in columns.iter().enumerate() {
            if c.len() != expected {
                return Err(DataFrameError::LengthMismatch {
                    expected,
                    found: c.len(),
                    column: c.name().to_string(),
                });
            }
            if columns[..i].iter().any(|d| d.name() == c.name()) {
                return Err(DataFrameError::DuplicateColumn(c.name().to_string()));
            }
        }
        Ok(DataFrame {
            columns: columns.into_iter().map(Arc::new).collect(),
            fp: Arc::new(OnceLock::new()),
        })
    }

    /// An empty dataframe (no columns, no rows).
    pub fn empty() -> Self {
        DataFrame {
            columns: vec![],
            fp: Arc::new(OnceLock::new()),
        }
    }

    /// Build a dataframe from row-major data with the given column names. Column types
    /// are inferred.
    pub fn from_rows(names: &[&str], rows: Vec<Vec<Value>>) -> Result<Self> {
        for r in &rows {
            if r.len() != names.len() {
                return Err(DataFrameError::RowArity {
                    expected: names.len(),
                    found: r.len(),
                });
            }
        }
        let mut cols: Vec<Vec<Value>> = vec![Vec::with_capacity(rows.len()); names.len()];
        for row in rows {
            for (i, v) in row.into_iter().enumerate() {
                cols[i].push(v);
            }
        }
        DataFrame::new(
            names
                .iter()
                .zip(cols)
                .map(|(n, vals)| Column::new(*n, vals))
                .collect(),
        )
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map(|c| c.len()).unwrap_or(0)
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// A stable 64-bit content fingerprint of this dataframe: column order, names,
    /// dtypes, and every cell.
    ///
    /// Stable across runs and platforms (FNV-1a, see [`crate::fingerprint`]), so it can
    /// key persistent or cross-process caches — the `linx-engine` result cache keys
    /// exploration results by `(dataset fingerprint, goal, config)`. Cost is one linear
    /// scan of the data the first time; the value is memoized (and shared by clones),
    /// so repeated calls are O(1) thereafter. Statistics never need it: the
    /// [`crate::StatsCache`] keys on storage ids and selection digests.
    pub fn fingerprint(&self) -> u64 {
        *self.fp.get_or_init(|| {
            let mut h = crate::fingerprint::Fnv1a::new();
            h.write_u64(self.columns.len() as u64);
            for c in &self.columns {
                h.write_u64(crate::fingerprint::column_fingerprint(c));
            }
            h.finish()
        })
    }

    /// The schema (names + dtypes) of this dataframe.
    ///
    /// Builds a new [`Schema`] on every call: it clones every field and checks the
    /// names' uniqueness again. To ask whether one column exists, use
    /// [`DataFrame::has_column`], which allocates nothing.
    pub fn schema(&self) -> Schema {
        Schema::new(self.columns.iter().map(|c| c.field()).collect())
            .expect("dataframe columns are unique by construction")
    }

    /// Whether this dataframe has a column named `name`.
    pub fn has_column(&self, name: &str) -> bool {
        self.columns.iter().any(|c| c.name() == name)
    }

    /// Column names in order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name()).collect()
    }

    /// Get a column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.columns
            .iter()
            .map(|c| c.as_ref())
            .find(|c| c.name() == name)
            .ok_or_else(|| DataFrameError::ColumnNotFound(name.to_string()))
    }

    /// All columns.
    pub fn columns(&self) -> impl Iterator<Item = &Column> {
        self.columns.iter().map(|c| c.as_ref())
    }

    /// Get the value at (row, column-name) — a compat shim materializing an owned
    /// [`Value`] at the API edge (a refcount bump for strings). Hot paths use
    /// [`Column::cell`]/[`Column::cells`] or the typed slice accessors instead.
    pub fn value(&self, row: usize, name: &str) -> Result<Value> {
        let col = self.column(name)?;
        col.get(row)
            .ok_or_else(|| DataFrameError::Invalid(format!("row {row} out of bounds")))
    }

    /// One full row as a vector of values (in column order).
    pub fn row(&self, idx: usize) -> Vec<Value> {
        self.columns
            .iter()
            .map(|c| c.get(idx).unwrap_or(Value::Null))
            .collect()
    }

    /// Select a subset of rows by index, producing a new dataframe.
    ///
    /// Zero-copy for in-range indices: the result is a selection view sharing this
    /// frame's cell storage, with the composed selection built **once per distinct
    /// parent selection** and shared across columns (in the overwhelmingly common case
    /// — all columns carrying the frame's one selection — that is a single `Arc<[u32]>`
    /// for the whole result). Out-of-range indices fall back to a materializing gather
    /// where they become nulls (the historical semantics).
    pub fn take(&self, indices: &[usize]) -> DataFrame {
        let n = self.num_rows();
        if indices.iter().any(|&i| i >= n) || n > u32::MAX as usize {
            return DataFrame {
                columns: self
                    .columns
                    .iter()
                    .map(|c| Arc::new(c.gather(indices)))
                    .collect(),
                fp: Arc::new(OnceLock::new()),
            };
        }
        // Compose the new selection through each column's existing one, memoized by
        // selection identity so ptr-equal parents share one composed Arc.
        let mut contiguous: Option<Arc<Selection>> = None;
        let mut composed: Vec<(*const Selection, Arc<Selection>)> = Vec::new();
        let columns = self
            .columns
            .iter()
            .map(|c| {
                let sel = match c.selection() {
                    None => Arc::clone(contiguous.get_or_insert_with(|| {
                        Arc::new(indices.iter().map(|&i| i as u32).collect())
                    })),
                    Some(parent) => {
                        let key = Arc::as_ptr(parent);
                        match composed.iter().find(|(k, _)| *k == key) {
                            Some((_, arc)) => Arc::clone(arc),
                            None => {
                                let arc: Arc<Selection> =
                                    Arc::new(indices.iter().map(|&i| parent[i]).collect());
                                composed.push((key, Arc::clone(&arc)));
                                arc
                            }
                        }
                    }
                };
                Arc::new(c.with_selection(sel))
            })
            .collect();
        DataFrame {
            columns,
            fp: Arc::new(OnceLock::new()),
        }
    }

    /// Whether any column is a selection view (shares another frame's storage through
    /// a row selection) rather than contiguous storage.
    pub fn is_view(&self) -> bool {
        self.columns.iter().any(|c| !c.is_contiguous())
    }

    /// A contiguous copy of this frame: every column's visible rows gathered into
    /// fresh storage. Contiguous frames return a cheap clone.
    ///
    /// Content — and therefore [`DataFrame::fingerprint`] — is identical by
    /// construction, so the memoized fingerprint is *shared* with the view: callers
    /// that materialize never pay a second fingerprint scan. The copy is new storage,
    /// so the [`crate::StatsCache`] computes its statistics afresh. Needed only where
    /// downstream code wants contiguous cell storage (e.g. the CSV writer); every
    /// query operation and statistic works on views directly.
    pub fn materialize(&self) -> DataFrame {
        if !self.is_view() {
            return self.clone();
        }
        DataFrame {
            columns: self
                .columns
                .iter()
                .map(|c| Arc::new(c.materialize()))
                .collect(),
            fp: Arc::clone(&self.fp),
        }
    }

    /// Select a subset of columns by name.
    pub fn select(&self, names: &[&str]) -> Result<DataFrame> {
        let mut cols = Vec::with_capacity(names.len());
        for n in names {
            cols.push(Arc::clone(
                self.columns
                    .iter()
                    .find(|c| c.name() == *n)
                    .ok_or_else(|| DataFrameError::ColumnNotFound((*n).to_string()))?,
            ));
        }
        Ok(DataFrame {
            columns: cols,
            fp: Arc::new(OnceLock::new()),
        })
    }

    /// The first `n` rows (like Pandas `head`). Used by the notebook renderer and the
    /// (simulated) LLM prompt which includes a 5-row sample.
    pub fn head(&self, n: usize) -> DataFrame {
        let n = n.min(self.num_rows());
        let idx: Vec<usize> = (0..n).collect();
        self.take(&idx)
    }

    /// Apply a filter predicate, returning the matching-row view.
    ///
    /// The predicate runs as a vectorized kernel over the column's typed storage
    /// (RHS resolved once, primitive scan / dictionary-mask scan — see
    /// `Column::filter_indices`), then the matching rows become a zero-copy
    /// selection view via [`DataFrame::take`].
    ///
    /// Returns an error if the referenced column does not exist (the CDRL engine treats
    /// that as an invalid action).
    pub fn filter(&self, pred: &Predicate) -> Result<DataFrame> {
        let col = self.column(&pred.attr)?;
        let indices = col.filter_indices(pred.op, &pred.term);
        Ok(self.take(&indices))
    }

    /// Group on `g_attr` and aggregate `agg_attr` with `agg`, producing a two-column
    /// result `(g_attr, "<agg>(<agg_attr>)")` ordered by first occurrence of each group.
    ///
    /// One pass: a group id per visible row, the aggregate folded per group in row
    /// order, and both output columns built straight into typed storage (see
    /// [`crate::groupby`]). The answer is the boxed reference's, bit for bit:
    /// [`Groups::from_values`] over the visible cells, [`AggFunc::apply`] per group,
    /// and [`Column::new`] for both columns.
    pub fn group_by(&self, g_attr: &str, agg: AggFunc, agg_attr: &str) -> Result<DataFrame> {
        let key_col = self.column(g_attr)?;
        let val_col = self.column(agg_attr)?;
        if agg.requires_numeric() && !val_col.dtype().is_numeric() {
            return Err(DataFrameError::NotNumeric(agg_attr.to_string()));
        }
        let out_name = format!("{}({})", agg.token(), agg_attr);
        DataFrame::new(crate::groupby::group_by(key_col, agg, val_col, &out_name))
    }

    /// The grouping structure for `g_attr` without aggregating (used by reward
    /// computations that need group sizes).
    pub fn groups(&self, g_attr: &str) -> Result<Groups> {
        Ok(Groups::from_column(self.column(g_attr)?))
    }

    /// Value histogram of a column (frequency of each distinct non-null value).
    pub fn histogram(&self, name: &str) -> Result<Histogram> {
        Ok(Histogram::from_column(self.column(name)?))
    }

    /// Distinct non-null values of a column, in first-occurrence order.
    pub fn distinct_values(&self, name: &str) -> Result<Vec<Value>> {
        let col = self.column(name)?;
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for v in col.cells() {
            if v.is_null() {
                continue;
            }
            // Borrowed keys: the dedup pass allocates nothing beyond the set.
            if seen.insert(v.group_key()) {
                out.push(v.to_value());
            }
        }
        Ok(out)
    }

    /// Approximate resident bytes of the frame's column storage (typed vectors, null
    /// bitmaps, selections; distinct strings counted once per column). The benchmark
    /// metric behind the typed-storage bytes-per-row comparison.
    pub fn approx_data_bytes(&self) -> u64 {
        self.columns.iter().map(|c| c.approx_data_bytes()).sum()
    }

    /// A compact multi-line textual rendering (at most `max_rows` rows) used in notebook
    /// cells and examples.
    pub fn render(&self, max_rows: usize) -> String {
        let names = self.column_names();
        let mut lines = Vec::new();
        lines.push(names.join(" | "));
        lines.push(
            names
                .iter()
                .map(|n| "-".repeat(n.len().max(3)))
                .collect::<Vec<_>>()
                .join("-+-"),
        );
        let n = self.num_rows().min(max_rows);
        for i in 0..n {
            let row: Vec<String> = self.row(i).iter().map(|v| v.to_string()).collect();
            lines.push(row.join(" | "));
        }
        if self.num_rows() > max_rows {
            lines.push(format!("... ({} rows total)", self.num_rows()));
        }
        lines.join("\n")
    }
}

impl fmt::Display for DataFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render(10))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::CompareOp;

    fn netflix_like() -> DataFrame {
        DataFrame::from_rows(
            &["country", "type", "rating", "duration"],
            vec![
                vec![
                    Value::str("India"),
                    Value::str("Movie"),
                    Value::str("TV-14"),
                    Value::Int(120),
                ],
                vec![
                    Value::str("India"),
                    Value::str("Movie"),
                    Value::str("TV-14"),
                    Value::Int(95),
                ],
                vec![
                    Value::str("India"),
                    Value::str("TV Show"),
                    Value::str("TV-MA"),
                    Value::Int(2),
                ],
                vec![
                    Value::str("US"),
                    Value::str("Movie"),
                    Value::str("TV-MA"),
                    Value::Int(110),
                ],
                vec![
                    Value::str("US"),
                    Value::str("TV Show"),
                    Value::str("TV-MA"),
                    Value::Int(3),
                ],
                vec![
                    Value::str("UK"),
                    Value::str("TV Show"),
                    Value::str("TV-PG"),
                    Value::Int(1),
                ],
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_checks_lengths_and_duplicates() {
        let err = DataFrame::new(vec![
            Column::new("a", vec![Value::Int(1), Value::Int(2)]),
            Column::new("b", vec![Value::Int(1)]),
        ])
        .unwrap_err();
        assert!(matches!(err, DataFrameError::LengthMismatch { .. }));

        let err = DataFrame::new(vec![
            Column::new("a", vec![Value::Int(1)]),
            Column::new("a", vec![Value::Int(2)]),
        ])
        .unwrap_err();
        assert!(matches!(err, DataFrameError::DuplicateColumn(_)));
    }

    #[test]
    fn from_rows_checks_arity() {
        let err = DataFrame::from_rows(&["a", "b"], vec![vec![Value::Int(1)]]).unwrap_err();
        assert!(matches!(
            err,
            DataFrameError::RowArity {
                expected: 2,
                found: 1
            }
        ));
    }

    #[test]
    fn filter_eq_and_neq_partition_rows() {
        let df = netflix_like();
        let india = df
            .filter(&Predicate::new(
                "country",
                CompareOp::Eq,
                Value::str("India"),
            ))
            .unwrap();
        let rest = df
            .filter(&Predicate::new(
                "country",
                CompareOp::Neq,
                Value::str("India"),
            ))
            .unwrap();
        assert_eq!(india.num_rows(), 3);
        assert_eq!(rest.num_rows(), 3);
        assert_eq!(india.num_rows() + rest.num_rows(), df.num_rows());
    }

    #[test]
    fn filter_missing_column_errors() {
        let df = netflix_like();
        let err = df
            .filter(&Predicate::new("nope", CompareOp::Eq, Value::Int(1)))
            .unwrap_err();
        assert!(matches!(err, DataFrameError::ColumnNotFound(_)));
    }

    #[test]
    fn group_by_count_matches_manual_counts() {
        let df = netflix_like();
        let agg = df.group_by("type", AggFunc::Count, "duration").unwrap();
        assert_eq!(agg.num_rows(), 2);
        assert_eq!(agg.column_names(), vec!["type", "count(duration)"]);
        // First group is "Movie" (first occurrence), count 3.
        assert_eq!(agg.value(0, "count(duration)").unwrap(), Value::Int(3));
        assert_eq!(agg.value(1, "count(duration)").unwrap(), Value::Int(3));
    }

    #[test]
    fn group_by_avg_on_numeric() {
        let df = netflix_like();
        let agg = df.group_by("country", AggFunc::Avg, "duration").unwrap();
        assert_eq!(agg.num_rows(), 3);
        // India durations: 120, 95, 2 -> avg 72.333...
        let v = agg.value(0, "avg(duration)").unwrap().as_f64().unwrap();
        assert!((v - 72.333).abs() < 0.01);
    }

    #[test]
    fn group_by_sum_on_string_column_errors() {
        let df = netflix_like();
        let err = df.group_by("country", AggFunc::Sum, "rating").unwrap_err();
        assert!(matches!(err, DataFrameError::NotNumeric(_)));
    }

    #[test]
    fn select_take_and_head() {
        let df = netflix_like();
        let sel = df.select(&["country", "duration"]).unwrap();
        assert_eq!(sel.num_columns(), 2);
        assert!(df.select(&["missing"]).is_err());
        for name in ["country", "type", "rating", "duration", "missing"] {
            assert_eq!(sel.has_column(name), sel.schema().contains(name), "{name}");
        }
        assert!(sel.has_column("duration") && !sel.has_column("type"));

        let taken = df.take(&[5, 0]);
        assert_eq!(taken.num_rows(), 2);
        assert_eq!(taken.value(0, "country").unwrap(), Value::str("UK"));

        assert_eq!(df.head(2).num_rows(), 2);
        assert_eq!(df.head(100).num_rows(), 6);
    }

    #[test]
    fn distinct_values_order_and_content() {
        let df = netflix_like();
        let dv = df.distinct_values("country").unwrap();
        assert_eq!(
            dv,
            vec![Value::str("India"), Value::str("US"), Value::str("UK")]
        );
    }

    #[test]
    fn render_contains_headers_and_truncation_note() {
        let df = netflix_like();
        let r = df.render(2);
        assert!(r.contains("country | type"));
        assert!(r.contains("(6 rows total)"));
    }

    #[test]
    fn empty_dataframe_behaviour() {
        let df = DataFrame::empty();
        assert_eq!(df.num_rows(), 0);
        assert_eq!(df.num_columns(), 0);
        assert!(df.schema().is_empty());
    }
}
