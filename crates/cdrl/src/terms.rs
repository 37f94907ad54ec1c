//! Filter-term inventory.
//!
//! The CDRL action space must be finite, so — as in ATENA — the filter term for each
//! attribute is chosen from a small inventory derived from the dataset: the most
//! frequent categorical values, or representative numeric quantiles for numeric
//! columns. The inventory is computed once per dataset on the root view.

use linx_dataframe::{DataFrame, DataType, StatsCache, Value};
use serde::{Deserialize, Serialize};

/// Per-column candidate filter terms.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TermInventory {
    columns: Vec<String>,
    terms: Vec<Vec<Value>>,
    slots: usize,
}

impl TermInventory {
    /// Build the inventory from the root dataset, keeping at most `slots` terms per
    /// column. Categorical histograms are read through the shared `stats` cache, so the
    /// root-column distributions the inventory ranks by are memoized for (and possibly
    /// already memoized by) the reward computations.
    pub fn build(df: &DataFrame, slots: usize, stats: &StatsCache) -> Self {
        let mut columns = Vec::new();
        let mut terms = Vec::new();
        for field in df.schema().fields() {
            let col_terms = match field.dtype {
                DataType::Str | DataType::Bool => {
                    // Most frequent values first.
                    stats
                        .histogram(df, &field.name)
                        .ok()
                        .map(|h| {
                            h.sorted()
                                .into_iter()
                                .take(slots)
                                .map(|(v, _)| v)
                                .collect::<Vec<_>>()
                        })
                        .unwrap_or_default()
                }
                DataType::Int | DataType::Float => numeric_terms(df, &field.name, slots),
            };
            columns.push(field.name.clone());
            terms.push(col_terms);
        }
        TermInventory {
            columns,
            terms,
            slots,
        }
    }

    /// The configured number of term slots.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Candidate terms for a column (empty if the column is unknown).
    pub fn terms_for(&self, column: &str) -> &[Value] {
        self.columns
            .iter()
            .position(|c| c == column)
            .map(|i| self.terms[i].as_slice())
            .unwrap_or(&[])
    }

    /// The term at a given slot for a column, if present.
    pub fn term_at(&self, column: &str, slot: usize) -> Option<&Value> {
        self.terms_for(column).get(slot)
    }

    /// A validity mask over the `slots` term positions for the given column.
    pub fn mask_for(&self, column: &str) -> Vec<bool> {
        let available = self.terms_for(column).len();
        (0..self.slots).map(|i| i < available).collect()
    }

    /// The slot index of a specific term in a column's inventory, if present (used by
    /// the gold-session tests and the expert baseline).
    pub fn slot_of(&self, column: &str, term: &Value) -> Option<usize> {
        self.terms_for(column).iter().position(|t| {
            t.semantic_eq(term) || t.to_string().eq_ignore_ascii_case(&term.to_string())
        })
    }
}

/// Representative numeric terms: min, max, and evenly spaced quantiles of the sorted
/// distinct values.
fn numeric_terms(df: &DataFrame, column: &str, slots: usize) -> Vec<Value> {
    let Ok(col) = df.column(column) else {
        return Vec::new();
    };
    // Typed fast path: read the primitive slice directly when the column is
    // contiguous numeric storage; otherwise walk borrowed cells (no Value clones).
    let mut values: Vec<f64> = if let Some(xs) = col.as_f64s() {
        match col.null_mask() {
            None => xs.to_vec(),
            Some(m) => xs
                .iter()
                .enumerate()
                .filter(|(i, _)| !m.is_null(*i))
                .map(|(_, &x)| x)
                .collect(),
        }
    } else if let Some(xs) = col.as_i64s() {
        match col.null_mask() {
            None => xs.iter().map(|&x| x as f64).collect(),
            Some(m) => xs
                .iter()
                .enumerate()
                .filter(|(i, _)| !m.is_null(*i))
                .map(|(_, &x)| x as f64)
                .collect(),
        }
    } else {
        col.cells().filter_map(|v| v.as_f64()).collect()
    };
    if values.is_empty() {
        return Vec::new();
    }
    values.sort_by(|a, b| a.total_cmp(b));
    values.dedup();
    if values.len() <= slots {
        return values
            .into_iter()
            .map(|v| {
                if v.fract() == 0.0 {
                    Value::Int(v as i64)
                } else {
                    Value::float(v)
                }
            })
            .collect();
    }
    let mut out = Vec::with_capacity(slots);
    for i in 0..slots {
        let q = i as f64 / (slots - 1) as f64;
        let idx = ((values.len() - 1) as f64 * q).round() as usize;
        let v = values[idx];
        let val = if v.fract() == 0.0 {
            Value::Int(v as i64)
        } else {
            Value::float(v)
        };
        if !out.contains(&val) {
            out.push(val);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn df() -> DataFrame {
        let mut rows = Vec::new();
        for i in 0..100 {
            let country = match i % 10 {
                0..=5 => "US",
                6..=8 => "India",
                _ => "UK",
            };
            rows.push(vec![
                Value::str(country),
                Value::Int(i as i64),
                Value::Bool(i % 2 == 0),
            ]);
        }
        DataFrame::from_rows(&["country", "num", "flag"], rows).unwrap()
    }

    #[test]
    fn categorical_terms_ordered_by_frequency() {
        let inv = TermInventory::build(&df(), 8, &StatsCache::default());
        let terms = inv.terms_for("country");
        assert_eq!(terms[0], Value::str("US"));
        assert_eq!(terms[1], Value::str("India"));
        assert_eq!(terms.len(), 3);
        assert_eq!(inv.slot_of("country", &Value::str("India")), Some(1));
        assert_eq!(inv.slot_of("country", &Value::str("France")), None);
    }

    #[test]
    fn numeric_terms_cover_the_range() {
        let inv = TermInventory::build(&df(), 6, &StatsCache::default());
        let terms = inv.terms_for("num");
        assert!(terms.len() <= 6 && terms.len() >= 2);
        assert_eq!(terms.first().unwrap(), &Value::Int(0));
        assert_eq!(terms.last().unwrap(), &Value::Int(99));
    }

    #[test]
    fn masks_reflect_available_terms() {
        let inv = TermInventory::build(&df(), 8, &StatsCache::default());
        let mask = inv.mask_for("country");
        assert_eq!(mask.len(), 8);
        assert_eq!(mask.iter().filter(|&&b| b).count(), 3);
        assert!(inv.mask_for("missing").iter().all(|&b| !b));
        assert!(inv.term_at("country", 0).is_some());
        assert!(inv.term_at("country", 7).is_none());
    }

    #[test]
    fn bool_columns_get_both_values() {
        let inv = TermInventory::build(&df(), 4, &StatsCache::default());
        assert_eq!(inv.terms_for("flag").len(), 2);
    }
}
