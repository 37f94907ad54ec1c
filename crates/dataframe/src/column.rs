//! Column storage.
//!
//! A [`Column`] is a named, typed sequence of cells. Since the typed-storage redesign
//! the cells live in a shared [`ColumnData`] — `Vec<i64>` / `Vec<f64>` / dictionary-
//! encoded strings / boxed `Value`s as a fallback — plus an optional [`NullMask`],
//! instead of one boxed [`Value`] per cell (see the `data` module docs for the layout
//! and the lossless-compaction rules), under an id unique within the process. A column
//! may additionally carry a **selection** — shared row indices into that storage,
//! with their digest — in which case it is a zero-copy *view* of a subset (or
//! reordering) of the rows. Filter and row-take operations build selections instead
//! of gathering cells.
//!
//! Access surface:
//!
//! * [`Column::cells`] / [`Column::cell`] — borrowed [`ValueRef`]s resolving through
//!   the selection; the general path, no per-cell allocation.
//! * [`Column::data`] + [`Column::as_i64s`] / [`Column::as_f64s`] / [`Column::as_dict`]
//!   — direct typed slices for kernels (contiguous columns only; views return `None`
//!   from the slice accessors because storage order includes hidden rows).
//! * [`Column::get`] — thin compat shim materializing an owned [`Value`] at the API
//!   edge.
//!
//! The filter/aggregate kernels in this module and in `groupby`/`stats` dispatch on
//! the storage variant: predicates over numeric columns run as tight loops over
//! primitive slices with the RHS resolved once; predicates over dictionary columns
//! evaluate once per *distinct* string and then scan codes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::data::{ColumnData, NullMask, ValueRef};
use crate::filter::CompareOp;
use crate::schema::{DataType, Field};
use crate::value::Value;

/// A named, typed sequence of values — contiguous, or a zero-copy selection view over
/// shared typed storage (see the module docs).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Column {
    name: Arc<str>,
    dtype: DataType,
    storage: Arc<Storage>,
    /// When present, the visible rows: indices into the storage, in view order. All
    /// indices are in bounds by construction (out-of-range gathers materialize
    /// instead).
    sel: Option<Arc<Selection>>,
}

/// A column's cells — the typed data and its null mask — under an id unique within
/// the process.
///
/// Views, clones and `select`s share their column's storage and so its id; every
/// operation that builds cells builds a new storage with a new id, and appending in
/// place ([`Column::push`]) takes a new id too. The id is drawn from a counter, never
/// derived from an address, so a statistic cached under it (see
/// [`crate::stats_cache`]) can never be served for other cells.
#[derive(Debug)]
pub(crate) struct Storage {
    id: u64,
    data: ColumnData,
    /// Null bitmap over storage rows, present only for typed variants with nulls
    /// (`Mixed` keeps `Value::Null` inline and never carries a mask).
    nulls: Option<NullMask>,
}

/// The next storage id.
fn next_storage_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

impl Storage {
    fn new(data: ColumnData, nulls: Option<NullMask>) -> Storage {
        Storage {
            id: next_storage_id(),
            data,
            nulls,
        }
    }
}

impl Clone for Storage {
    /// A copy is new storage, with an id of its own.
    fn clone(&self) -> Storage {
        Storage::new(self.data.clone(), self.nulls.clone())
    }
}

/// A view's visible rows — storage indices in view order — with their digest
/// ([`crate::fingerprint::selection_digest`]), computed once when the selection is
/// built and shared by every column that carries it.
#[derive(Debug)]
pub(crate) struct Selection {
    rows: Box<[u32]>,
    digest: u64,
}

impl FromIterator<u32> for Selection {
    fn from_iter<I: IntoIterator<Item = u32>>(rows: I) -> Selection {
        let rows: Box<[u32]> = rows.into_iter().collect();
        let digest = crate::fingerprint::selection_digest(&rows);
        Selection { rows, digest }
    }
}

impl std::ops::Deref for Selection {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.rows
    }
}

impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        if self.name != other.name || self.dtype != other.dtype || self.len() != other.len() {
            return false;
        }
        // Fast path: shared storage + identical selection means identical contents —
        // no cell walk. (Columns cloned from one another, or views taken from the
        // same parent with the same memoized selection, hit this.)
        if Arc::ptr_eq(&self.storage, &other.storage) {
            let sel_same = match (&self.sel, &other.sel) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b) || a.rows == b.rows,
                _ => false,
            };
            if sel_same {
                return true;
            }
        }
        self.cells().zip(other.cells()).all(|(a, b)| a == b)
    }
}

impl Column {
    /// Create a column from values, inferring the dominant data type.
    ///
    /// Values whose type disagrees with the dominant type are kept as-is (the dataframe
    /// is permissive, like Pandas object columns); nulls do not influence inference.
    /// An all-null column defaults to [`DataType::Str`]. Storage is compacted to the
    /// typed representation when the cells allow it (losslessly — see [`ColumnData`]).
    pub fn new(name: impl Into<String>, values: Vec<Value>) -> Self {
        let dtype = infer_dtype(&values);
        Self::from_parts(Arc::from(name.into()), dtype, values)
    }

    /// Create a column that **skips** typed compaction and stores boxed cells exactly
    /// as the seed representation did. Exists so benchmarks and tests can compare the
    /// typed kernels against the `Value`-per-cell path; production code wants
    /// [`Column::new`].
    #[doc(hidden)]
    pub fn new_uncompacted(name: impl Into<String>, values: Vec<Value>) -> Self {
        let dtype = infer_dtype(&values);
        Column {
            name: Arc::from(name.into()),
            dtype,
            storage: Arc::new(Storage::new(ColumnData::Mixed(values), None)),
            sel: None,
        }
    }

    /// A contiguous column over newly built typed storage, stored exactly as
    /// [`Column::new`] stores the same cells: `data` holds a placeholder at the rows
    /// `nulls` marks, storage is normalised by [`ColumnData::typed`], and the dtype
    /// follows the variant it keeps.
    pub(crate) fn from_typed(name: &str, data: ColumnData, nulls: NullMask) -> Column {
        let (data, nulls) = ColumnData::typed(data, nulls);
        let dtype = match data {
            ColumnData::I64(_) => DataType::Int,
            ColumnData::F64(_) => DataType::Float,
            _ => DataType::Str,
        };
        Column {
            name: Arc::from(name),
            dtype,
            storage: Arc::new(Storage::new(data, nulls)),
            sel: None,
        }
    }

    /// Compact `values` into typed storage under an already-decided name and dtype.
    fn from_parts(name: Arc<str>, dtype: DataType, values: Vec<Value>) -> Self {
        let (data, nulls) = ColumnData::compact(values);
        Column {
            name,
            dtype,
            storage: Arc::new(Storage::new(data, nulls)),
            sel: None,
        }
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Column data type.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// The field (name + dtype) describing this column.
    pub fn field(&self) -> Field {
        Field::new(self.name.to_string(), self.dtype)
    }

    /// Number of visible values (rows).
    pub fn len(&self) -> usize {
        match &self.sel {
            Some(sel) => sel.len(),
            None => self.storage.data.len(),
        }
    }

    /// Whether the column has no visible rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the visible rows are the backing storage itself (no selection).
    pub fn is_contiguous(&self) -> bool {
        self.sel.is_none()
    }

    /// The typed backing storage. **Storage order**: when the column is a view
    /// ([`Column::is_contiguous`] is false) this includes rows the selection hides —
    /// resolve through [`Column::sel_indices`] or use [`Column::cells`] instead.
    pub fn data(&self) -> &ColumnData {
        &self.storage.data
    }

    /// The null bitmap over storage rows, when the typed storage carries one.
    /// `Mixed` storage keeps nulls inline and always returns `None` here.
    pub fn null_mask(&self) -> Option<&NullMask> {
        self.storage.nulls.as_ref()
    }

    /// The visible rows as storage indices, when this column is a view.
    pub fn sel_indices(&self) -> Option<&[u32]> {
        self.sel.as_deref().map(|sel| &sel.rows[..])
    }

    /// The visible cells as an `&[i64]` slice: contiguous integer-typed columns only
    /// (views return `None` — their storage includes hidden rows). Null positions
    /// hold a placeholder; consult [`Column::null_mask`].
    pub fn as_i64s(&self) -> Option<&[i64]> {
        match (&self.sel, &self.storage.data) {
            (None, ColumnData::I64(xs)) => Some(xs),
            _ => None,
        }
    }

    /// The visible cells as an `&[f64]` slice: contiguous float-typed columns only
    /// (same contract as [`Column::as_i64s`]).
    pub fn as_f64s(&self) -> Option<&[f64]> {
        match (&self.sel, &self.storage.data) {
            (None, ColumnData::F64(xs)) => Some(xs),
            _ => None,
        }
    }

    /// The visible cells as dictionary codes plus the dictionary: contiguous
    /// dictionary-encoded string columns only (same contract as [`Column::as_i64s`]).
    pub fn as_dict(&self) -> Option<(&[u32], &[Arc<str>])> {
        match (&self.sel, &self.storage.data) {
            (None, ColumnData::Dict { codes, dict }) => Some((codes, dict)),
            _ => None,
        }
    }

    /// Iterate the visible cells in row order as borrowed [`ValueRef`]s, resolving
    /// through the selection. No per-cell allocation; integers and floats are carried
    /// inline, strings borrow the dictionary.
    pub fn cells(&self) -> impl ExactSizeIterator<Item = ValueRef<'_>> + '_ {
        Cells {
            data: &self.storage.data,
            nulls: self.storage.nulls.as_ref(),
            sel: self.sel_indices(),
            pos: 0,
            len: self.len(),
        }
    }

    /// The cell at a (visible) row index, borrowed.
    pub fn cell(&self, idx: usize) -> Option<ValueRef<'_>> {
        if idx >= self.len() {
            return None;
        }
        let si = self.storage_index(idx);
        Some(self.storage.data.value_ref(si, self.storage.nulls.as_ref()))
    }

    /// Value at a (visible) row index — compat shim materializing an owned [`Value`]
    /// (a refcount bump for strings). Hot paths want [`Column::cell`]/[`Column::cells`].
    pub fn get(&self, idx: usize) -> Option<Value> {
        self.cell(idx).map(|r| r.to_value())
    }

    /// Number of null values among the visible rows.
    pub fn null_count(&self) -> usize {
        match &self.storage.data {
            ColumnData::Mixed(vs) => match &self.sel {
                None => vs.iter().filter(|v| v.is_null()).count(),
                Some(sel) => sel.iter().filter(|&&i| vs[i as usize].is_null()).count(),
            },
            _ => match (self.storage.nulls.as_ref(), &self.sel) {
                (None, _) => 0,
                (Some(m), None) => m.null_count(),
                (Some(m), Some(sel)) => sel.iter().filter(|&&i| m.is_null(i as usize)).count(),
            },
        }
    }

    /// Number of distinct non-null values. Typed storage dedups primitives (or dict
    /// codes) directly; `Mixed` falls back to a borrowed-key pass.
    pub fn n_unique(&self) -> usize {
        use std::collections::HashSet;
        match &self.storage.data {
            ColumnData::I64(xs) => {
                let mut seen: HashSet<i64> = HashSet::new();
                self.for_each_non_null(|_, si| {
                    seen.insert(xs[si]);
                });
                seen.len()
            }
            ColumnData::F64(xs) => {
                let mut seen: HashSet<u64> = HashSet::new();
                self.for_each_non_null(|_, si| {
                    seen.insert(xs[si].to_bits());
                });
                seen.len()
            }
            ColumnData::Dict { codes, .. } => {
                let mut seen: HashSet<u32> = HashSet::new();
                self.for_each_non_null(|_, si| {
                    seen.insert(codes[si]);
                });
                seen.len()
            }
            ColumnData::Mixed(_) => {
                let mut seen: HashSet<crate::value::GroupKey<'_>> = HashSet::new();
                for v in self.cells() {
                    if !v.is_null() {
                        seen.insert(v.group_key());
                    }
                }
                seen.len()
            }
        }
    }

    /// The selection, when this column is a view (indices into the shared storage).
    pub(crate) fn selection(&self) -> Option<&Arc<Selection>> {
        self.sel.as_ref()
    }

    /// The id of this column's storage, shared by every view, clone and `select` of
    /// it (see [`Storage`]).
    pub(crate) fn storage_id(&self) -> u64 {
        self.storage.id
    }

    /// The digest of the visible rows when this column is a view; `None` when the
    /// visible rows are the whole storage.
    pub(crate) fn selection_digest(&self) -> Option<u64> {
        self.sel.as_ref().map(|sel| sel.digest)
    }

    /// A view of this column restricted to `sel` — **storage** indices, already
    /// composed through any existing selection and verified in bounds by the caller
    /// ([`crate::DataFrame::take`] composes once per distinct parent selection and
    /// shares the result across columns).
    pub(crate) fn with_selection(&self, sel: Arc<Selection>) -> Column {
        debug_assert!(sel.iter().all(|&i| (i as usize) < self.storage.data.len()));
        Column {
            name: Arc::clone(&self.name),
            dtype: self.dtype,
            storage: Arc::clone(&self.storage),
            sel: Some(sel),
        }
    }

    /// Storage index of a visible row (row must be in bounds).
    #[inline]
    pub(crate) fn storage_index(&self, vis: usize) -> usize {
        match &self.sel {
            Some(sel) => sel[vis] as usize,
            None => vis,
        }
    }

    /// Whether the cell at a **storage** index is null (works for every variant).
    #[inline]
    pub(crate) fn is_null_storage(&self, si: usize) -> bool {
        match &self.storage.data {
            ColumnData::Mixed(vs) => vs[si].is_null(),
            _ => self.storage.nulls.as_ref().is_some_and(|m| m.is_null(si)),
        }
    }

    /// Run `f(row, si)` over every visible **non-null** row of typed storage, in row
    /// order: its visible index and its storage index. One loop per combination of
    /// selection and null mask, so no row branches on either.
    #[inline]
    pub(crate) fn for_each_non_null(&self, mut f: impl FnMut(usize, usize)) {
        match (&self.sel, self.storage.nulls.as_ref()) {
            (None, None) => (0..self.storage.data.len()).for_each(|si| f(si, si)),
            (None, Some(m)) => (0..self.storage.data.len())
                .filter(|&si| !m.is_null(si))
                .for_each(|si| f(si, si)),
            (Some(sel), None) => {
                for (row, &si) in sel.iter().enumerate() {
                    f(row, si as usize);
                }
            }
            (Some(sel), Some(m)) => {
                for (row, &si) in sel.iter().enumerate() {
                    if !m.is_null(si as usize) {
                        f(row, si as usize);
                    }
                }
            }
        }
    }

    /// Run `f(si, null)` over every visible row of typed storage, in row order: its
    /// storage index and whether it is null (`Mixed` storage keeps its nulls inline,
    /// so it reports none). One loop per combination of selection and null mask.
    #[inline]
    pub(crate) fn for_each_row(&self, mut f: impl FnMut(usize, bool)) {
        match (&self.sel, self.storage.nulls.as_ref()) {
            (None, None) => (0..self.storage.data.len()).for_each(|si| f(si, false)),
            (None, Some(m)) => (0..self.storage.data.len()).for_each(|si| f(si, m.is_null(si))),
            (Some(sel), None) => sel.iter().for_each(|&si| f(si as usize, false)),
            (Some(sel), Some(m)) => sel
                .iter()
                .for_each(|&si| f(si as usize, m.is_null(si as usize))),
        }
    }

    /// Gather a subset of rows into a new column (preserving the declared dtype).
    ///
    /// In-range gathers are zero-copy: the result is a view sharing this column's
    /// storage under a fresh selection. Out-of-range indices fall back to a
    /// materializing gather where they become [`Value::Null`] (the historical
    /// semantics).
    pub fn gather(&self, indices: &[usize]) -> Column {
        let n = self.len();
        if indices.iter().all(|&i| i < n) && self.storage.data.len() <= u32::MAX as usize {
            let composed: Selection = match &self.sel {
                Some(sel) => indices.iter().map(|&i| sel[i]).collect(),
                None => indices.iter().map(|&i| i as u32).collect(),
            };
            return self.with_selection(Arc::new(composed));
        }
        let values = indices
            .iter()
            .map(|&i| self.get(i).unwrap_or(Value::Null))
            .collect();
        Self::from_parts(Arc::clone(&self.name), self.dtype, values)
    }

    /// A contiguous copy of the visible rows. Cheap for contiguous columns (shares
    /// the storage `Arc`); for views it gathers within the typed representation —
    /// primitive copies for numeric storage, code copies plus a shared dictionary for
    /// strings (the dictionary may then hold entries no visible code references).
    pub fn materialize(&self) -> Column {
        let sel = match &self.sel {
            None => return self.clone(),
            Some(sel) => sel,
        };
        let gathered_mask = || -> Option<NullMask> {
            let m = self.storage.nulls.as_ref()?;
            let mut out = NullMask::new_empty(sel.len());
            let mut any = false;
            for (vis, &si) in sel.iter().enumerate() {
                if m.is_null(si as usize) {
                    out.set_null(vis);
                    any = true;
                }
            }
            any.then_some(out)
        };
        let (data, nulls) = match &self.storage.data {
            ColumnData::I64(xs) => (
                ColumnData::I64(sel.iter().map(|&i| xs[i as usize]).collect()),
                gathered_mask(),
            ),
            ColumnData::F64(xs) => (
                ColumnData::F64(sel.iter().map(|&i| xs[i as usize]).collect()),
                gathered_mask(),
            ),
            ColumnData::Dict { codes, dict } => (
                ColumnData::Dict {
                    codes: sel.iter().map(|&i| codes[i as usize]).collect(),
                    dict: dict.clone(),
                },
                gathered_mask(),
            ),
            ColumnData::Mixed(vs) => (
                ColumnData::Mixed(sel.iter().map(|&i| vs[i as usize].clone()).collect()),
                None,
            ),
        };
        Column {
            name: Arc::clone(&self.name),
            dtype: self.dtype,
            storage: Arc::new(Storage::new(data, nulls)),
            sel: None,
        }
    }

    /// Sum of the numeric values, ignoring nulls and non-numeric cells. Typed numeric
    /// storage sums a primitive slice directly.
    pub fn sum(&self) -> f64 {
        // -0.0 accumulator start: bit-identical to `Iterator::sum::<f64>()` (whose
        // fold identity is -0.0) even when no numeric cells exist.
        match &self.storage.data {
            ColumnData::I64(xs) => {
                let mut s = -0.0f64;
                self.for_each_non_null(|_, si| s += xs[si] as f64);
                s
            }
            ColumnData::F64(xs) => {
                let mut s = -0.0f64;
                self.for_each_non_null(|_, si| s += xs[si]);
                s
            }
            ColumnData::Dict { .. } => -0.0,
            ColumnData::Mixed(_) => self.cells().filter_map(|v| v.as_f64()).sum(),
        }
    }

    /// Mean of the numeric values, or `None` if there are none. Single pass — no
    /// intermediate buffer.
    pub fn mean(&self) -> Option<f64> {
        let (mut sum, mut count) = (0.0f64, 0usize);
        match &self.storage.data {
            ColumnData::I64(xs) => self.for_each_non_null(|_, si| {
                sum += xs[si] as f64;
                count += 1;
            }),
            ColumnData::F64(xs) => self.for_each_non_null(|_, si| {
                sum += xs[si];
                count += 1;
            }),
            ColumnData::Dict { .. } => {}
            ColumnData::Mixed(_) => {
                for v in self.cells() {
                    if let Some(x) = v.as_f64() {
                        sum += x;
                        count += 1;
                    }
                }
            }
        }
        if count == 0 {
            None
        } else {
            Some(sum / count as f64)
        }
    }

    /// Minimum value (by total order), ignoring nulls.
    pub fn min(&self) -> Option<Value> {
        self.min_max(true)
    }

    /// Maximum value (by total order), ignoring nulls.
    pub fn max(&self) -> Option<Value> {
        self.min_max(false)
    }

    fn min_max(&self, want_min: bool) -> Option<Value> {
        match &self.storage.data {
            ColumnData::I64(xs) => {
                let mut best: Option<i64> = None;
                self.for_each_non_null(|_, si| {
                    let x = xs[si];
                    best = Some(match best {
                        None => x,
                        Some(b) => {
                            if (x < b) == want_min {
                                x
                            } else {
                                b
                            }
                        }
                    });
                });
                best.map(Value::Int)
            }
            ColumnData::F64(xs) => {
                let mut best: Option<f64> = None;
                self.for_each_non_null(|_, si| {
                    let x = xs[si];
                    best = Some(match best {
                        None => x,
                        Some(b) => {
                            if (x.total_cmp(&b) == std::cmp::Ordering::Less) == want_min {
                                x
                            } else {
                                b
                            }
                        }
                    });
                });
                best.map(Value::Float)
            }
            ColumnData::Dict { codes, dict } => {
                let mut best: Option<&Arc<str>> = None;
                self.for_each_non_null(|_, si| {
                    let s = &dict[codes[si] as usize];
                    best = Some(match best {
                        None => s,
                        Some(b) => {
                            if (s.as_ref() < b.as_ref()) == want_min {
                                s
                            } else {
                                b
                            }
                        }
                    });
                });
                best.map(|s| Value::Str(Arc::clone(s)))
            }
            ColumnData::Mixed(_) => {
                let it = self.cells().filter(|v| !v.is_null());
                let best = if want_min {
                    it.min_by(|a, b| a.total_cmp(b))
                } else {
                    it.max_by(|a, b| a.total_cmp(b))
                };
                best.map(|v| v.to_value())
            }
        }
    }

    /// Append a value (used by builders; dtype is not re-inferred). A view is
    /// materialized first; contiguous columns with unshared storage append in place.
    /// A value that does not fit the typed variant (e.g. a string pushed onto an
    /// integer column) falls back to the boxed representation.
    pub fn push(&mut self, value: Value) {
        if self.sel.is_some() {
            *self = self.materialize();
        }
        let fits = matches!(
            (&self.storage.data, &value),
            (ColumnData::I64(_), Value::Int(_) | Value::Null)
                | (ColumnData::F64(_), Value::Float(_) | Value::Null)
                | (ColumnData::Dict { .. }, Value::Str(_) | Value::Null)
                | (ColumnData::Mixed(_), _)
        );
        if !fits {
            let mut values = self.storage.data.to_values(self.storage.nulls.as_ref());
            values.push(value);
            let (data, nulls) = ColumnData::compact(values);
            self.storage = Arc::new(Storage::new(data, nulls));
            return;
        }
        let is_null = value.is_null();
        let storage = Arc::make_mut(&mut self.storage);
        // Appending in place changes the cells, so the storage takes a new id.
        storage.id = next_storage_id();
        match (&mut storage.data, value) {
            (ColumnData::Mixed(vs), v) => {
                vs.push(v);
                return; // nulls stay inline in Mixed; no mask to maintain
            }
            (ColumnData::I64(xs), Value::Int(i)) => xs.push(i),
            (ColumnData::I64(xs), Value::Null) => xs.push(0),
            (ColumnData::F64(xs), Value::Float(f)) => xs.push(f),
            (ColumnData::F64(xs), Value::Null) => xs.push(0.0),
            (ColumnData::Dict { codes, dict }, Value::Str(s)) => {
                // Builder path: dictionaries here are small (group keys, distinct
                // values), so a linear probe beats maintaining a side index.
                match dict.iter().position(|d| **d == *s) {
                    Some(c) => codes.push(c as u32),
                    None => {
                        let c = dict.len() as u32;
                        dict.push(s);
                        codes.push(c);
                    }
                }
            }
            (ColumnData::Dict { codes, .. }, Value::Null) => codes.push(0),
            _ => unreachable!("push fit check covers every variant"),
        }
        // Typed append: extend (or create) the null mask to cover the new row.
        match &mut storage.nulls {
            Some(m) => m.push(is_null),
            None if is_null => {
                let mut m = NullMask::new_empty(storage.data.len() - 1);
                m.push(true);
                storage.nulls = Some(m);
            }
            None => {}
        }
    }

    /// Visible row indices satisfying `op term`, evaluated as a vectorized kernel.
    ///
    /// The RHS is resolved once per call: numeric storage scans a primitive slice
    /// against a pre-coerced `f64`; dictionary storage evaluates the predicate once
    /// per distinct string and then scans codes; `Mixed` falls back to per-cell
    /// [`CompareOp::eval`]. All paths produce exactly the rows the per-cell path
    /// would (the kernels mirror `eval`'s coercion rules, including null handling).
    pub(crate) fn filter_indices(&self, op: CompareOp, term: &Value) -> Vec<usize> {
        let null_match = op.eval(&Value::Null, term);
        let mut out = Vec::new();
        match &self.storage.data {
            ColumnData::I64(xs) => self.scan_numeric(
                xs,
                |x| x as f64,
                &Value::Int(0),
                op,
                term,
                null_match,
                &mut out,
            ),
            ColumnData::F64(xs) => self.scan_numeric(
                xs,
                |x| x,
                &Value::Float(0.0),
                op,
                term,
                null_match,
                &mut out,
            ),
            ColumnData::Dict { codes, dict } => {
                // One predicate evaluation per distinct string (this is where the
                // per-row lowercase allocations of Contains/StartsWith collapse),
                // then a tight scan over codes.
                let mask: Vec<bool> = dict
                    .iter()
                    .map(|s| op.eval(&Value::Str(Arc::clone(s)), term))
                    .collect();
                self.scan_pred(codes, null_match, |c| mask[c as usize], &mut out);
            }
            ColumnData::Mixed(vs) => match &self.sel {
                None => {
                    for (i, v) in vs.iter().enumerate() {
                        if op.eval(v, term) {
                            out.push(i);
                        }
                    }
                }
                Some(sel) => {
                    for (vis, &si) in sel.iter().enumerate() {
                        if op.eval(&vs[si as usize], term) {
                            out.push(vis);
                        }
                    }
                }
            },
        }
        out
    }

    /// Numeric filter kernel: dispatch `op` to a primitive comparison loop when the
    /// term coerces to a number; otherwise every non-null cell evaluates to the same
    /// constant (numeric cells never match string terms and vice versa), which
    /// `sample` — a stand-in non-null cell of this column's type — resolves once.
    #[allow(clippy::too_many_arguments)]
    fn scan_numeric<T: Copy>(
        &self,
        xs: &[T],
        to_f64: impl Fn(T) -> f64,
        sample: &Value,
        op: CompareOp,
        term: &Value,
        null_match: bool,
        out: &mut Vec<usize>,
    ) {
        let t = match (term.as_f64(), op) {
            (
                Some(t),
                CompareOp::Eq
                | CompareOp::Neq
                | CompareOp::Gt
                | CompareOp::Ge
                | CompareOp::Lt
                | CompareOp::Le,
            ) => t,
            _ => {
                // Contains/StartsWith on numbers, or a non-numeric term: constant
                // outcome for every non-null cell.
                let k = op.eval(sample, term);
                self.scan_const(null_match, k, out);
                return;
            }
        };
        match op {
            CompareOp::Eq => self.scan_pred(xs, null_match, |x| to_f64(x) == t, out),
            CompareOp::Neq => self.scan_pred(xs, null_match, |x| to_f64(x) != t, out),
            CompareOp::Gt => self.scan_pred(xs, null_match, |x| to_f64(x) > t, out),
            CompareOp::Ge => self.scan_pred(xs, null_match, |x| to_f64(x) >= t, out),
            CompareOp::Lt => self.scan_pred(xs, null_match, |x| to_f64(x) < t, out),
            CompareOp::Le => self.scan_pred(xs, null_match, |x| to_f64(x) <= t, out),
            _ => unreachable!("non-comparison ops take the constant path"),
        }
    }

    /// Scan typed storage through the selection and null mask, pushing the visible
    /// index of every row where the per-element predicate (or `null_match`) holds.
    fn scan_pred<T: Copy>(
        &self,
        xs: &[T],
        null_match: bool,
        pred: impl Fn(T) -> bool,
        out: &mut Vec<usize>,
    ) {
        match (&self.sel, self.storage.nulls.as_ref()) {
            (None, None) => {
                for (i, &x) in xs.iter().enumerate() {
                    if pred(x) {
                        out.push(i);
                    }
                }
            }
            (None, Some(m)) => {
                for (i, &x) in xs.iter().enumerate() {
                    let hit = if m.is_null(i) { null_match } else { pred(x) };
                    if hit {
                        out.push(i);
                    }
                }
            }
            (Some(sel), None) => {
                for (vis, &si) in sel.iter().enumerate() {
                    if pred(xs[si as usize]) {
                        out.push(vis);
                    }
                }
            }
            (Some(sel), Some(m)) => {
                for (vis, &si) in sel.iter().enumerate() {
                    let si = si as usize;
                    let hit = if m.is_null(si) {
                        null_match
                    } else {
                        pred(xs[si])
                    };
                    if hit {
                        out.push(vis);
                    }
                }
            }
        }
    }

    /// Degenerate kernel: every non-null cell matches iff `non_null_match`, nulls
    /// match iff `null_match`.
    fn scan_const(&self, null_match: bool, non_null_match: bool, out: &mut Vec<usize>) {
        if null_match == non_null_match {
            if non_null_match {
                out.extend(0..self.len());
            }
            return;
        }
        let nulls = self.storage.nulls.as_ref();
        match &self.sel {
            None => {
                for i in 0..self.storage.data.len() {
                    let is_null = nulls.is_some_and(|m| m.is_null(i));
                    if (is_null && null_match) || (!is_null && non_null_match) {
                        out.push(i);
                    }
                }
            }
            Some(sel) => {
                for (vis, &si) in sel.iter().enumerate() {
                    let is_null = nulls.is_some_and(|m| m.is_null(si as usize));
                    if (is_null && null_match) || (!is_null && non_null_match) {
                        out.push(vis);
                    }
                }
            }
        }
    }

    /// Approximate resident bytes of this column's storage: typed vectors (or boxed
    /// cells), the null bitmap, and the selection. Distinct strings count once.
    pub fn approx_data_bytes(&self) -> u64 {
        self.storage.data.approx_bytes()
            + self
                .storage
                .nulls
                .as_ref()
                .map_or(0, NullMask::approx_bytes)
            + self.sel.as_deref().map_or(0, |s| (s.len() * 4) as u64)
    }
}

/// The iterator behind [`Column::cells`].
struct Cells<'a> {
    data: &'a ColumnData,
    nulls: Option<&'a NullMask>,
    sel: Option<&'a [u32]>,
    pos: usize,
    len: usize,
}

impl<'a> Iterator for Cells<'a> {
    type Item = ValueRef<'a>;

    fn next(&mut self) -> Option<ValueRef<'a>> {
        if self.pos >= self.len {
            return None;
        }
        let si = match self.sel {
            Some(sel) => sel[self.pos] as usize,
            None => self.pos,
        };
        self.pos += 1;
        Some(self.data.value_ref(si, self.nulls))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.len - self.pos;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Cells<'_> {}

/// Infer a column type from values: the most common non-null type wins; ties break in
/// favour of the more general type (Float > Int, Str > everything).
fn infer_dtype(values: &[Value]) -> DataType {
    let mut counts = [0usize; 4]; // Int, Float, Str, Bool
    for v in values {
        match v {
            Value::Int(_) => counts[0] += 1,
            Value::Float(_) => counts[1] += 1,
            Value::Str(_) => counts[2] += 1,
            Value::Bool(_) => counts[3] += 1,
            Value::Null => {}
        }
    }
    // If any strings exist alongside other types, treat as Str (mixed/object column).
    let total: usize = counts.iter().sum();
    if total == 0 {
        return DataType::Str;
    }
    if counts[2] > 0 && counts[2] * 2 >= total {
        return DataType::Str;
    }
    // Numeric columns with any float become Float.
    if counts[1] > 0 && counts[2] == 0 && counts[3] == 0 {
        return DataType::Float;
    }
    let max_idx = (0..4).max_by_key(|&i| counts[i]).unwrap();
    match max_idx {
        0 => DataType::Int,
        1 => DataType::Float,
        2 => DataType::Str,
        _ => DataType::Bool,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(col: &Column) -> Vec<Value> {
        col.cells().map(|v| v.to_value()).collect()
    }

    #[test]
    fn dtype_inference_prefers_dominant_type() {
        let c = Column::new("a", vec![Value::Int(1), Value::Int(2), Value::Null]);
        assert_eq!(c.dtype(), DataType::Int);
        let c = Column::new("b", vec![Value::Int(1), Value::Float(2.5)]);
        assert_eq!(c.dtype(), DataType::Float);
        let c = Column::new("c", vec![Value::str("x"), Value::str("y"), Value::Int(1)]);
        assert_eq!(c.dtype(), DataType::Str);
        let c = Column::new("d", vec![Value::Null, Value::Null]);
        assert_eq!(c.dtype(), DataType::Str);
        let c = Column::new("e", vec![Value::Bool(true), Value::Bool(false)]);
        assert_eq!(c.dtype(), DataType::Bool);
    }

    #[test]
    fn storage_compacts_by_cell_types() {
        let c = Column::new("i", vec![Value::Int(1), Value::Null]);
        assert!(matches!(c.data(), ColumnData::I64(_)));
        assert_eq!(c.as_i64s(), Some(&[1i64, 0][..]));
        assert!(c.null_mask().unwrap().is_null(1));

        let c = Column::new("f", vec![Value::Float(0.5)]);
        assert_eq!(c.as_f64s(), Some(&[0.5][..]));

        let c = Column::new("s", vec![Value::str("a"), Value::str("b"), Value::str("a")]);
        let (codes, dict) = c.as_dict().unwrap();
        assert_eq!(codes, &[0, 1, 0]);
        assert_eq!(dict.len(), 2);

        let c = Column::new("m", vec![Value::Int(1), Value::str("x")]);
        assert!(matches!(c.data(), ColumnData::Mixed(_)));
        assert!(c.as_i64s().is_none() && c.as_f64s().is_none() && c.as_dict().is_none());
    }

    #[test]
    fn gather_preserves_name_and_dtype() {
        let c = Column::new("a", vec![Value::Int(10), Value::Int(20), Value::Int(30)]);
        let g = c.gather(&[2, 0]);
        assert_eq!(g.name(), "a");
        assert_eq!(g.dtype(), DataType::Int);
        assert_eq!(values(&g), vec![Value::Int(30), Value::Int(10)]);
        assert!(!g.is_contiguous(), "in-range gather is a zero-copy view");
        assert!(g.as_i64s().is_none(), "views expose no storage slices");
        let m = g.materialize();
        assert!(m.is_contiguous());
        assert_eq!(m.as_i64s().unwrap(), &[30, 10]);
    }

    #[test]
    fn gather_of_gather_composes_selections() {
        let c = Column::new(
            "a",
            vec![Value::Int(0), Value::Int(1), Value::Int(2), Value::Int(3)],
        );
        let g1 = c.gather(&[3, 2, 1]);
        let g2 = g1.gather(&[2, 0]);
        assert_eq!(values(&g2), vec![Value::Int(1), Value::Int(3)]);
        assert_eq!(g2.get(1), Some(Value::Int(3)));
        assert_eq!(g2.len(), 2);
    }

    #[test]
    fn gather_out_of_range_yields_null() {
        let c = Column::new("a", vec![Value::Int(1)]);
        let g = c.gather(&[0, 5]);
        assert!(g.is_contiguous(), "out-of-range gather materializes");
        assert_eq!(values(&g), vec![Value::Int(1), Value::Null]);
        assert_eq!(g.null_count(), 1);
    }

    #[test]
    fn materialized_view_keeps_typed_storage_and_nulls() {
        let c = Column::new(
            "a",
            vec![Value::Int(1), Value::Null, Value::Int(3), Value::Int(4)],
        );
        let m = c.gather(&[1, 3]).materialize();
        assert!(matches!(m.data(), ColumnData::I64(_)));
        assert_eq!(values(&m), vec![Value::Null, Value::Int(4)]);
        assert_eq!(m.null_count(), 1);
        // A view that excludes every null materializes without a mask.
        let m = c.gather(&[0, 2]).materialize();
        assert!(m.null_mask().is_none());
        assert_eq!(m.null_count(), 0);

        let s = Column::new("s", vec![Value::str("x"), Value::str("y")]);
        let m = s.gather(&[1]).materialize();
        assert!(matches!(m.data(), ColumnData::Dict { .. }));
        assert_eq!(values(&m), vec![Value::str("y")]);
    }

    #[test]
    fn aggregates_ignore_nulls() {
        let c = Column::new(
            "a",
            vec![Value::Int(1), Value::Null, Value::Int(3), Value::Float(2.0)],
        );
        assert!(
            matches!(c.data(), ColumnData::Mixed(_)),
            "mixed numeric stays boxed"
        );
        assert_eq!(c.sum(), 6.0);
        assert_eq!(c.mean(), Some(2.0));
        assert_eq!(c.min(), Some(Value::Int(1)));
        assert_eq!(c.max(), Some(Value::Int(3)));
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.n_unique(), 3);
    }

    #[test]
    fn typed_aggregates_match_boxed_aggregates() {
        let cells = vec![Value::Int(5), Value::Null, Value::Int(-2), Value::Int(5)];
        let typed = Column::new("a", cells.clone());
        let boxed = Column::new_uncompacted("a", cells);
        assert!(matches!(typed.data(), ColumnData::I64(_)));
        assert!(matches!(boxed.data(), ColumnData::Mixed(_)));
        assert_eq!(typed.sum(), boxed.sum());
        assert_eq!(typed.mean(), boxed.mean());
        assert_eq!(typed.min(), boxed.min());
        assert_eq!(typed.max(), boxed.max());
        assert_eq!(typed.null_count(), boxed.null_count());
        assert_eq!(typed.n_unique(), boxed.n_unique());
        assert_eq!(typed, boxed, "PartialEq sees through representations");
    }

    #[test]
    fn aggregates_respect_the_selection() {
        let c = Column::new(
            "a",
            vec![Value::Int(10), Value::Int(20), Value::Null, Value::Int(20)],
        );
        let view = c.gather(&[1, 2, 3]);
        assert_eq!(view.sum(), 40.0);
        assert_eq!(view.mean(), Some(20.0));
        assert_eq!(view.min(), Some(Value::Int(20)));
        assert_eq!(view.max(), Some(Value::Int(20)));
        assert_eq!(view.null_count(), 1);
        assert_eq!(view.n_unique(), 1);
    }

    #[test]
    fn empty_column_aggregates() {
        let c = Column::new("a", vec![]);
        assert!(c.is_empty());
        assert_eq!(c.sum(), 0.0);
        assert_eq!(c.mean(), None);
        assert_eq!(c.min(), None);
        assert_eq!(c.max(), None);
    }

    #[test]
    fn n_unique_counts_distinct_non_null() {
        let c = Column::new(
            "a",
            vec![
                Value::str("x"),
                Value::str("x"),
                Value::str("y"),
                Value::Null,
            ],
        );
        assert_eq!(c.n_unique(), 2);
    }

    #[test]
    fn push_materializes_views_first() {
        let c = Column::new("a", vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        let mut view = c.gather(&[2, 1]);
        view.push(Value::Int(9));
        assert_eq!(
            values(&view),
            vec![Value::Int(3), Value::Int(2), Value::Int(9)]
        );
        // The original storage is untouched.
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(2), Some(Value::Int(3)));
    }

    #[test]
    fn push_appends_in_place_or_falls_back() {
        let mut c = Column::new("a", vec![Value::Int(1)]);
        c.push(Value::Int(2));
        c.push(Value::Null);
        assert!(matches!(c.data(), ColumnData::I64(_)));
        assert_eq!(values(&c), vec![Value::Int(1), Value::Int(2), Value::Null]);
        // A misfit value falls back to boxed storage without losing cells.
        c.push(Value::str("x"));
        assert!(matches!(c.data(), ColumnData::Mixed(_)));
        assert_eq!(
            values(&c),
            vec![Value::Int(1), Value::Int(2), Value::Null, Value::str("x")]
        );

        let mut s = Column::new("s", vec![Value::str("a")]);
        s.push(Value::str("b"));
        s.push(Value::str("a"));
        let (codes, dict) = s.as_dict().unwrap();
        assert_eq!(codes, &[0, 1, 0]);
        assert_eq!(dict.len(), 2);
    }

    #[test]
    fn eq_fast_path_and_cell_fallback() {
        let a = Column::new("a", vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        let b = a.clone(); // shares storage: fast path
        assert_eq!(a, b);
        let v1 = a.gather(&[0, 2]);
        let v2 = a.gather(&[0, 2]); // equal but distinct selections
        assert_eq!(v1, v2);
        // Same contents through different representations: cell-wise fallback.
        let rebuilt = Column::new("a", vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert_eq!(a, rebuilt);
        let boxed = Column::new_uncompacted("a", vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert_eq!(a, boxed);
        assert_ne!(
            a,
            Column::new("a", vec![Value::Int(1), Value::Int(2), Value::Int(4)])
        );
    }

    #[test]
    fn filter_indices_matches_per_cell_eval() {
        use crate::filter::CompareOp;
        let cells = vec![
            Value::Int(10),
            Value::Null,
            Value::Int(-3),
            Value::Int(7),
            Value::Int(10),
        ];
        let typed = Column::new("a", cells.clone());
        let boxed = Column::new_uncompacted("a", cells);
        for op in CompareOp::ALL {
            for term in [
                Value::Int(7),
                Value::Float(7.0),
                Value::str("7"),
                Value::Null,
                Value::Bool(true),
            ] {
                assert_eq!(
                    typed.filter_indices(op, &term),
                    boxed.filter_indices(op, &term),
                    "op={op:?} term={term:?}"
                );
            }
        }
    }

    #[test]
    fn filter_indices_dict_evaluates_once_per_distinct() {
        use crate::filter::CompareOp;
        let c = Column::new(
            "s",
            vec![
                Value::str("TV-MA"),
                Value::str("PG"),
                Value::Null,
                Value::str("TV-14"),
                Value::str("PG"),
            ],
        );
        assert_eq!(
            c.filter_indices(CompareOp::StartsWith, &Value::str("tv")),
            vec![0, 3]
        );
        assert_eq!(
            c.filter_indices(CompareOp::Neq, &Value::str("PG")),
            vec![0, 2, 3],
            "Neq matches nulls"
        );
        // Views filter through the selection and emit visible indices.
        let v = c.gather(&[4, 3, 0]);
        assert_eq!(
            v.filter_indices(CompareOp::StartsWith, &Value::str("tv")),
            vec![1, 2]
        );
    }

    #[test]
    fn approx_bytes_shrink_vs_boxed() {
        let cells: Vec<Value> = (0..1000).map(Value::Int).collect();
        let typed = Column::new("a", cells.clone());
        let boxed = Column::new_uncompacted("a", cells);
        assert!(typed.approx_data_bytes() * 2 <= boxed.approx_data_bytes());
    }
}
