//! Group-and-aggregate operations.
//!
//! A LINX group-and-aggregate operation is `[G, g_attr, agg_func, agg_attr]` (paper §3):
//! group the input view on `g_attr` and aggregate `agg_attr` using `agg_func`. The
//! result is a two-column table `(g_attr, agg_func(agg_attr))`, matching the Pandas
//! `df.groupby(g_attr).agg({agg_attr: agg_func})` shape LINX's notebook cells display.
//!
//! # One pass
//!
//! [`DataFrame::group_by`](crate::DataFrame::group_by) runs in one pass over the
//! visible rows, in four steps:
//!
//! 1. Every row gets a group id, in first-occurrence order, with nulls one group of
//!    their own. Dictionary codes find their group in a flat table over the
//!    dictionary; integers, floats (by bit pattern) and `Mixed` cells (by
//!    [`GroupKey`]) find theirs in a map with a cheap deterministic hasher.
//! 2. The aggregate folds over the rows, in row order, into one accumulator per
//!    group: each group adds its terms in ascending row order, from `-0.0`, exactly as
//!    [`AggFunc::apply`] does. A distinct count visits the rows group by group and
//!    marks each value id once per group. `Mixed` values take `apply` per group.
//! 3. The key column is built from each group's first row, straight into typed
//!    storage.
//! 4. So is the aggregate column, stored as [`Column::new`] stores the same cells.
//!
//! The answer is therefore the boxed reference's, bit for bit: [`Groups::from_values`]
//! over the visible cells, [`AggFunc::apply`] per group, and [`Column::new`] for both
//! columns. [`Groups::from_column`] runs the same first step.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::column::Column;
use crate::data::{ColumnData, NullMask};
use crate::value::{GroupKey, OwnedGroupKey, Value};

/// Aggregation functions supported by the engine (the set used by LINX / ATENA).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggFunc {
    /// Count of (non-null-group) rows.
    Count,
    /// Sum of the aggregation attribute.
    Sum,
    /// Mean of the aggregation attribute.
    Avg,
    /// Minimum of the aggregation attribute.
    Min,
    /// Maximum of the aggregation attribute.
    Max,
    /// Number of distinct values of the aggregation attribute.
    CountDistinct,
}

impl AggFunc {
    /// All functions in canonical order (used to enumerate the CDRL action space).
    pub const ALL: [AggFunc; 6] = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Avg,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::CountDistinct,
    ];

    /// Canonical LDX token (e.g. `count`, `sum`, `avg`).
    pub fn token(&self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::CountDistinct => "nunique",
        }
    }

    /// Parse a token (accepts a few aliases, e.g. `mean` for `avg`, `cnt` for `count`).
    pub fn parse(token: &str) -> Option<AggFunc> {
        match token.trim().to_ascii_lowercase().as_str() {
            "count" | "cnt" | "size" => Some(AggFunc::Count),
            "sum" => Some(AggFunc::Sum),
            "avg" | "mean" => Some(AggFunc::Avg),
            "min" => Some(AggFunc::Min),
            "max" => Some(AggFunc::Max),
            "nunique" | "count_distinct" | "distinct" => Some(AggFunc::CountDistinct),
            _ => None,
        }
    }

    /// Whether this function requires a numeric aggregation attribute.
    pub fn requires_numeric(&self) -> bool {
        matches!(self, AggFunc::Sum | AggFunc::Avg)
    }

    /// Apply the aggregation to a set of values (one group).
    pub fn apply(&self, values: &[&Value]) -> Value {
        match self {
            AggFunc::Count => Value::Int(values.len() as i64),
            AggFunc::Sum => Value::float(values.iter().filter_map(|v| v.as_f64()).sum()),
            AggFunc::Avg => {
                // Single pass, no intermediate buffer. The sum starts at -0.0, as
                // `Sum`'s does (`Iterator::sum`'s identity): values that are all -0.0
                // average to -0.0, whatever storage holds them.
                let (mut sum, mut count) = (-0.0f64, 0usize);
                for x in values.iter().filter_map(|v| v.as_f64()) {
                    sum += x;
                    count += 1;
                }
                if count == 0 {
                    Value::Null
                } else {
                    Value::float(sum / count as f64)
                }
            }
            AggFunc::Min => values
                .iter()
                .filter(|v| !v.is_null())
                .min()
                .map(|v| (*v).clone())
                .unwrap_or(Value::Null),
            AggFunc::Max => values
                .iter()
                .filter(|v| !v.is_null())
                .max()
                .map(|v| (*v).clone())
                .unwrap_or(Value::Null),
            AggFunc::CountDistinct => {
                use std::collections::HashSet;
                // Borrowed keys: no per-value allocation, only the dedup set.
                let set: HashSet<GroupKey<'_>> = values
                    .iter()
                    .filter(|v| !v.is_null())
                    .map(|v| v.group_key())
                    .collect();
                Value::Int(set.len() as i64)
            }
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

/// The raw grouping result before materializing into a dataframe: ordered group keys and
/// the row indices in each group. Groups preserve first-occurrence order so aggregations
/// are deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct Groups {
    /// Representative key value per group (the group-by attribute value).
    pub keys: Vec<Value>,
    /// Row indices of each group, parallel to `keys`.
    pub indices: Vec<Vec<usize>>,
}

impl Groups {
    /// Build groups from a column of key values (any iterator of cells — a slice, or a
    /// selection view's [`crate::Column::cells`]).
    ///
    /// Keys the bucket map by [`OwnedGroupKey`], whose construction is a refcount bump
    /// for strings — so grouping a column allocates only the output buckets, never a
    /// per-row key string.
    pub fn from_values<'a>(values: impl IntoIterator<Item = &'a Value>) -> Groups {
        let mut map: HashMap<OwnedGroupKey, usize> = HashMap::new();
        let mut keys = Vec::new();
        let mut indices: Vec<Vec<usize>> = Vec::new();
        for (row, v) in values.into_iter().enumerate() {
            let gid = *map.entry(v.owned_group_key()).or_insert_with(|| {
                keys.push(v.clone());
                indices.push(Vec::new());
                keys.len() - 1
            });
            indices[gid].push(row);
        }
        Groups { keys, indices }
    }

    /// Build groups from a column's visible rows, through the group-id pass of
    /// [`DataFrame::group_by`](crate::DataFrame::group_by) (see the module docs). Group
    /// keys and ordering (first occurrence; nulls are their own group) are identical to
    /// [`Groups::from_values`] over the visible cells.
    pub fn from_column(col: &Column) -> Groups {
        let groups = RowGroups::of(col);
        Groups {
            keys: groups
                .first
                .iter()
                .map(|&si| col.data().value_ref(si, col.null_mask()).to_value())
                .collect(),
            indices: groups.indices(),
        }
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether there are no groups.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Sizes of each group.
    pub fn sizes(&self) -> Vec<usize> {
        self.indices.iter().map(|g| g.len()).collect()
    }
}

/// No group (or value) yet: a table slot not filled, or a null value.
const UNSEEN: usize = usize::MAX;

/// A deterministic hasher for group keys: each word (bytes eight at a time) is folded
/// in by a 64 × 64 → 128-bit multiply whose halves are xored, which spreads every
/// input bit over the bits a table indexes by (a float's low mantissa bits are often
/// all zero).
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let m = u128::from(self.0 ^ x) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }
}

/// A map hashed by [`KeyHasher`], keyed by a primitive unless stated otherwise.
type KeyMap<V, K = u64> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// A lookup for [`RowGroups::assign`] through a flat table over `width` codes, where
/// `code(si)` is storage row `si`'s.
fn flat(width: usize, code: impl Fn(usize) -> usize) -> impl FnMut(usize, usize) -> usize {
    let mut group_of = vec![UNSEEN; width];
    move |si, next| {
        let slot = &mut group_of[code(si)];
        if *slot == UNSEEN {
            *slot = next;
        }
        *slot
    }
}

/// A lookup for [`RowGroups::assign`] through a map keyed by `key(si)`.
fn hashed(key: impl Fn(usize) -> u64) -> impl FnMut(usize, usize) -> usize {
    let mut group_of: KeyMap<usize> = KeyMap::default();
    move |si, next| *group_of.entry(key(si)).or_insert(next)
}

/// Each visible row's group (see the module docs): ids in first-occurrence order,
/// nulls one group of their own.
struct RowGroups {
    /// The group of each visible row, in row order.
    ids: Vec<usize>,
    /// The storage row where each group first occurs, which holds its key.
    first: Vec<usize>,
}

impl RowGroups {
    /// The groups of `col`'s visible rows. Dictionary codes find their group in a flat
    /// table; integers, and floats by bit pattern, find theirs in a map, and `Mixed`
    /// cells by their [`GroupKey`], nulls among them, as [`Groups::from_values`]
    /// groups them.
    fn of(col: &Column) -> RowGroups {
        match col.data() {
            ColumnData::I64(xs) => RowGroups::assign(col, hashed(|si| xs[si] as u64)),
            ColumnData::F64(xs) => RowGroups::assign(col, hashed(|si| xs[si].to_bits())),
            ColumnData::Dict { codes, dict } => {
                RowGroups::assign(col, flat(dict.len(), |si| codes[si] as usize))
            }
            ColumnData::Mixed(vs) => {
                let mut group_of: KeyMap<usize, GroupKey<'_>> = KeyMap::default();
                RowGroups::assign(col, |si, next| {
                    *group_of.entry(vs[si].group_key()).or_insert(next)
                })
            }
        }
    }

    /// Give each visible row of `col` its group: `group_of(si, next)` is the group of
    /// storage row `si` (not null in typed storage), or `next` when that row opens a
    /// new one.
    #[inline]
    fn assign(col: &Column, mut group_of: impl FnMut(usize, usize) -> usize) -> RowGroups {
        let (mut ids, mut first) = (Vec::with_capacity(col.len()), Vec::new());
        let mut null_group = UNSEEN;
        col.for_each_row(|si, null| {
            let next = first.len();
            let g = match null {
                true if null_group == UNSEEN => {
                    null_group = next;
                    next
                }
                true => null_group,
                false => group_of(si, next),
            };
            if g == next {
                first.push(si);
            }
            ids.push(g);
        });
        RowGroups { ids, first }
    }

    /// Number of groups.
    fn len(&self) -> usize {
        self.first.len()
    }

    /// The number of rows in each group.
    fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0; self.len()];
        self.ids.iter().for_each(|&g| sizes[g] += 1);
        sizes
    }

    /// The visible rows of each group, ascending.
    fn indices(&self) -> Vec<Vec<usize>> {
        let mut indices: Vec<Vec<usize>> =
            self.sizes().into_iter().map(Vec::with_capacity).collect();
        for (row, &g) in self.ids.iter().enumerate() {
            indices[g].push(row);
        }
        indices
    }

    /// The key column: each group's key, read off its first row, in typed storage;
    /// `Mixed` keys are boxed through [`Column::new`].
    fn key_column(&self, col: &Column) -> Column {
        let keys = self
            .first
            .iter()
            .map(|&si| (!col.is_null_storage(si)).then_some(si));
        match col.data() {
            ColumnData::I64(xs) => typed_column(
                col.name(),
                keys.map(|k| k.map(|si| xs[si])),
                ColumnData::I64,
            ),
            ColumnData::F64(xs) => typed_column(
                col.name(),
                keys.map(|k| k.map(|si| xs[si])),
                ColumnData::F64,
            ),
            ColumnData::Dict { codes, dict } => dict_column(
                col.name(),
                keys.map(|k| k.map(|si| codes[si])).collect(),
                dict,
            ),
            ColumnData::Mixed(vs) => Column::new(
                col.name(),
                self.first.iter().map(|&si| vs[si].clone()).collect(),
            ),
        }
    }

    /// `agg` of `col` over each group, stored as [`Column::new`] would store the
    /// results [`AggFunc::apply`] gives: typed storage folds over the visible rows in
    /// row order into one accumulator per group, `Mixed` storage applies `apply`.
    fn aggregate(&self, agg: AggFunc, col: &Column, name: &str) -> Column {
        let (ids, n) = (&self.ids, self.len());
        let data = col.data();
        if let ColumnData::Mixed(vs) = data {
            let cells = |rows: Vec<usize>| -> Vec<&Value> {
                rows.into_iter()
                    .map(|r| &vs[col.storage_index(r)])
                    .collect()
            };
            let results = self
                .indices()
                .into_iter()
                .map(|rows| agg.apply(&cells(rows)));
            return Column::new(name, results.collect());
        }
        match agg {
            AggFunc::Count => {
                let sizes = self.sizes().into_iter().map(|s| Some(s as i64));
                typed_column(name, sizes, ColumnData::I64)
            }
            AggFunc::Sum | AggFunc::Avg => {
                // -0.0 is `Iterator::sum`'s identity, where `apply` starts too.
                let (mut sums, mut counts) = (vec![-0.0f64; n], vec![0usize; n]);
                let mut add = |row: usize, x: f64| {
                    let g = ids[row];
                    sums[g] += x;
                    counts[g] += 1;
                };
                match data {
                    ColumnData::I64(xs) => col.for_each_non_null(|row, si| add(row, xs[si] as f64)),
                    ColumnData::F64(xs) => col.for_each_non_null(|row, si| add(row, xs[si])),
                    // Strings add nothing to a numeric aggregate.
                    _ => {}
                }
                let results = sums.into_iter().zip(counts).map(|(sum, count)| match agg {
                    AggFunc::Sum => sum,
                    _ if count == 0 => f64::NAN,
                    _ => sum / count as f64,
                });
                // A NaN result is null, as `Value::float` makes it.
                typed_column(
                    name,
                    results.map(|x| (!x.is_nan()).then_some(x)),
                    ColumnData::F64,
                )
            }
            AggFunc::Min | AggFunc::Max => {
                let want_min = agg == AggFunc::Min;
                match data {
                    ColumnData::I64(xs) => {
                        let best = self.best(col, |si| xs[si], |x, b| (x < b) == want_min);
                        typed_column(name, best.into_iter(), ColumnData::I64)
                    }
                    ColumnData::F64(xs) => {
                        let best =
                            self.best(col, |si| xs[si], |x, b| x.total_cmp(&b).is_lt() == want_min);
                        typed_column(name, best.into_iter(), ColumnData::F64)
                    }
                    ColumnData::Dict { codes, dict } => {
                        let best = self.best(
                            col,
                            |si| codes[si],
                            |x, b| x != b && (dict[x as usize] < dict[b as usize]) == want_min,
                        );
                        dict_column(name, best, dict)
                    }
                    ColumnData::Mixed(_) => unreachable!("Mixed values take `apply`"),
                }
            }
            AggFunc::CountDistinct => {
                // Each visible row's value id (`UNSEEN` for a null): a dictionary code,
                // or for numbers the group the value gets when `col` is grouped.
                let (values, domain) = match data {
                    ColumnData::Dict { codes, dict } => {
                        let mut values = vec![UNSEEN; col.len()];
                        col.for_each_non_null(|row, si| values[row] = codes[si] as usize);
                        (values, dict.len())
                    }
                    _ => {
                        let RowGroups { mut ids, first } = RowGroups::of(col);
                        if let Some(null) = first.iter().position(|&si| col.is_null_storage(si)) {
                            ids.iter_mut()
                                .filter(|v| **v == null)
                                .for_each(|v| *v = UNSEEN);
                        }
                        (ids, first.len())
                    }
                };
                let counts = self.distinct(&values, domain).into_iter().map(Some);
                typed_column(name, counts, ColumnData::I64)
            }
        }
    }

    /// Each group's best non-null value of `col` (`None` when it has none): a row's
    /// value replaces the group's best so far when `better(value, best)`.
    fn best<T: Copy>(
        &self,
        col: &Column,
        value: impl Fn(usize) -> T,
        better: impl Fn(T, T) -> bool,
    ) -> Vec<Option<T>> {
        let mut best: Vec<Option<T>> = vec![None; self.len()];
        col.for_each_non_null(|row, si| {
            let (slot, x) = (&mut best[self.ids[row]], value(si));
            if slot.is_none_or(|b| better(x, b)) {
                *slot = Some(x);
            }
        });
        best
    }

    /// The number of distinct values in each group, given each visible row's value id
    /// in `0..domain` (`UNSEEN` for a null). The rows are visited group by group — a
    /// counting sort of their values by group — so a value counts for a group at the
    /// first of the group's rows that holds it, and one table marks the values seen.
    fn distinct(&self, values: &[usize], domain: usize) -> Vec<i64> {
        let mut start = vec![0; self.len() + 1];
        self.ids.iter().for_each(|&g| start[g + 1] += 1);
        for g in 0..self.len() {
            start[g + 1] += start[g];
        }
        let (mut next, mut by_group) = (start.clone(), vec![UNSEEN; values.len()]);
        for (&g, &v) in self.ids.iter().zip(values) {
            by_group[next[g]] = v;
            next[g] += 1;
        }
        let mut seen_in = vec![UNSEEN; domain];
        (0..self.len())
            .map(|g| {
                let mut count = 0;
                for &v in &by_group[start[g]..start[g + 1]] {
                    if v != UNSEEN && seen_in[v] != g {
                        seen_in[v] = g;
                        count += 1;
                    }
                }
                count
            })
            .collect()
    }
}

/// A column of `cells` (`None` for a null) in the typed storage `wrap` makes, as
/// [`Column::new`] stores the same cells (see [`Column::from_typed`]).
fn typed_column<T: Copy + Default>(
    name: &str,
    cells: impl ExactSizeIterator<Item = Option<T>>,
    wrap: impl FnOnce(Vec<T>) -> ColumnData,
) -> Column {
    // Filled by `push`, not collected: collecting could reuse the cells' allocation,
    // twice the size the column keeps for as long as it lives.
    let (mut data, mut nulls) = (
        Vec::with_capacity(cells.len()),
        NullMask::new_empty(cells.len()),
    );
    for (i, cell) in cells.enumerate() {
        data.push(cell.unwrap_or_else(|| {
            nulls.set_null(i);
            T::default()
        }));
    }
    Column::from_typed(name, wrap(data), nulls)
}

/// A dictionary column of `cells` — codes into `dict`, `None` for a null — encoded as
/// [`Column::new`] encodes the same strings: a dictionary of the strings used, in
/// first-occurrence order, recoded through a flat table over `dict`.
fn dict_column(name: &str, cells: Vec<Option<u32>>, dict: &[Arc<str>]) -> Column {
    let (mut recode, mut used) = (flat(dict.len(), |c| c), Vec::with_capacity(cells.len()));
    let cells: Vec<Option<u32>> = cells
        .into_iter()
        .map(|cell| {
            cell.map(|c| {
                let code = recode(c as usize, used.len());
                if code == used.len() {
                    used.push(Arc::clone(&dict[c as usize]));
                }
                code as u32
            })
        })
        .collect();
    typed_column(name, cells.into_iter(), |codes| ColumnData::Dict {
        codes,
        dict: used,
    })
}

/// The sizes of `col`'s groups, as [`Groups::sizes`] gives them, when `code(si)` below
/// `width` identifies the key of typed storage row `si`: the group-id pass through a
/// flat table over the codes.
pub(crate) fn sizes_by_code(
    col: &Column,
    width: usize,
    code: impl Fn(usize) -> usize,
) -> Vec<usize> {
    RowGroups::assign(col, flat(width, code)).sizes()
}

/// `g_attr`'s groups and `agg` of `val` over each, as the two columns of
/// [`DataFrame::group_by`](crate::DataFrame::group_by)'s answer (see the module docs).
pub(crate) fn group_by(key: &Column, agg: AggFunc, val: &Column, out_name: &str) -> Vec<Column> {
    let groups = RowGroups::of(key);
    vec![groups.key_column(key), groups.aggregate(agg, val, out_name)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_preserve_first_occurrence_order() {
        let vals = vec![
            Value::str("b"),
            Value::str("a"),
            Value::str("b"),
            Value::str("c"),
            Value::str("a"),
        ];
        let g = Groups::from_values(&vals);
        assert_eq!(g.len(), 3);
        assert_eq!(
            g.keys,
            vec![Value::str("b"), Value::str("a"), Value::str("c")]
        );
        assert_eq!(g.indices, vec![vec![0, 2], vec![1, 4], vec![3]]);
        assert_eq!(g.sizes(), vec![2, 2, 1]);
    }

    #[test]
    fn null_is_its_own_group() {
        let vals = vec![Value::Null, Value::str("a"), Value::Null];
        let g = Groups::from_values(&vals);
        assert_eq!(g.len(), 2);
        assert_eq!(g.indices[0], vec![0, 2]);
    }

    #[test]
    fn agg_count_and_sum() {
        let vals = [Value::Int(2), Value::Int(3), Value::Null];
        let refs: Vec<&Value> = vals.iter().collect();
        assert_eq!(AggFunc::Count.apply(&refs), Value::Int(3));
        assert_eq!(AggFunc::Sum.apply(&refs), Value::Float(5.0));
        assert_eq!(AggFunc::Avg.apply(&refs), Value::Float(2.5));
        assert_eq!(AggFunc::Min.apply(&refs), Value::Int(2));
        assert_eq!(AggFunc::Max.apply(&refs), Value::Int(3));
        assert_eq!(AggFunc::CountDistinct.apply(&refs), Value::Int(2));
    }

    #[test]
    fn agg_on_empty_group() {
        let refs: Vec<&Value> = vec![];
        assert_eq!(AggFunc::Count.apply(&refs), Value::Int(0));
        assert_eq!(AggFunc::Avg.apply(&refs), Value::Null);
        assert_eq!(AggFunc::Min.apply(&refs), Value::Null);
    }

    #[test]
    fn avg_of_negative_zeros_is_negative_zero_on_every_storage() {
        let cells = vec![Value::Float(-0.0), Value::Float(-0.0)];
        let refs: Vec<&Value> = cells.iter().collect();
        let avg = AggFunc::Avg.apply(&refs);
        assert!(matches!(avg, Value::Float(x) if x.to_bits() == (-0.0f64).to_bits()));
        let keys = Column::new("k", vec![Value::str("a"), Value::str("a")]);
        let frames = [
            Column::new("v", cells.clone()),
            Column::new_uncompacted("v", cells),
        ]
        .map(|v| crate::DataFrame::new(vec![keys.clone(), v]).unwrap());
        let answers = frames
            .each_ref()
            .map(|df| df.group_by("k", AggFunc::Avg, "v").unwrap());
        for answer in &answers {
            assert_eq!(answer.value(0, "avg(v)").unwrap(), avg);
        }
        assert_eq!(answers[0].fingerprint(), answers[1].fingerprint());
    }

    #[test]
    fn from_column_matches_from_values_across_variants() {
        let samples: Vec<Vec<Value>> = vec![
            vec![Value::Int(3), Value::Null, Value::Int(3), Value::Int(7)],
            vec![Value::Float(1.5), Value::Float(1.5), Value::Null],
            vec![
                Value::str("b"),
                Value::str("a"),
                Value::Null,
                Value::str("b"),
            ],
            vec![Value::Bool(true), Value::Int(1), Value::Null],
        ];
        for cells in samples {
            let col = Column::new("k", cells.clone());
            let typed = Groups::from_column(&col);
            let boxed = Groups::from_values(&cells);
            assert_eq!(typed, boxed, "{cells:?}");
            // Views group through the selection with local row numbering.
            let view = col.gather(&[0, 2, 1]);
            let gathered: Vec<Value> = vec![cells[0].clone(), cells[2].clone(), cells[1].clone()];
            assert_eq!(Groups::from_column(&view), Groups::from_values(&gathered));
        }
    }

    #[test]
    fn parse_tokens_and_aliases() {
        assert_eq!(AggFunc::parse("COUNT"), Some(AggFunc::Count));
        assert_eq!(AggFunc::parse("mean"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::parse("nunique"), Some(AggFunc::CountDistinct));
        assert_eq!(AggFunc::parse("median"), None);
        for f in AggFunc::ALL {
            assert_eq!(AggFunc::parse(f.token()), Some(f));
        }
    }

    #[test]
    fn requires_numeric_flags() {
        assert!(AggFunc::Sum.requires_numeric());
        assert!(AggFunc::Avg.requires_numeric());
        assert!(!AggFunc::Count.requires_numeric());
        assert!(!AggFunc::Max.requires_numeric());
    }
}
