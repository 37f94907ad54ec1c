//! `linx-dataframe` — the in-memory columnar table engine underpinning the LINX
//! reproduction.
//!
//! The LINX paper (EDBT 2025) executes exploration sessions composed of two parametric
//! query operation types over a tabular dataset:
//!
//! * **Filter** — `[F, attr, op, term]`: keep the rows of the input view whose value in
//!   `attr` satisfies `op term`.
//! * **Group-and-Aggregate** — `[G, g_attr, agg_func, agg_attr]`: group the input view on
//!   `g_attr` and aggregate `agg_attr` with `agg_func`.
//!
//! The original system uses Python Pandas; this crate provides an equivalent, dependency
//! free substrate with exactly the semantics the LINX reward functions need:
//!
//! * typed columnar storage ([`Column`] over [`ColumnData`]): integer/float columns as
//!   primitive `Vec`s, string columns dictionary-encoded over interned `Arc<str>`s,
//!   nulls in a side bitmap ([`NullMask`]), with a boxed-`Value` fallback for mixed
//!   columns — behind shared `Arc`s with optional zero-copy row selections
//!   (filter/take return *views*, not copies), and vectorized filter/group/histogram
//!   kernels dispatching on the storage variant,
//! * interned string cells ([`Value::Str`] holds a pooled `Arc<str>`; see
//!   [`value::intern`]) so residual clones are refcount bumps,
//! * a [`DataFrame`] holding named columns of equal length,
//! * filter predicates ([`filter::Predicate`], [`filter::CompareOp`]),
//! * hash group-by with the aggregation functions used by the paper
//!   ([`groupby::AggFunc`]),
//! * value histograms, entropy, and KL-divergence helpers ([`stats`]) used by the
//!   generic exploration reward,
//! * a sharded statistics cache ([`stats_cache`]), keyed by column storage and
//!   selection, memoizing histograms, groupings, and per-column summaries across
//!   reward computations, and
//! * a small CSV reader/writer ([`csv`]) so real Kaggle exports can be loaded when
//!   available.
//!
//! # Invariants
//!
//! [`DataFrame::fingerprint`] hashes *content* (FNV-1a over column names, types, and
//! values — never pointers or names), is memoized, and is identical across clones and
//! processes. Everything keyed on it — the result cache, the disk tier and
//! consistent-hash shard placement in `linx-engine` — inherits the consequence:
//! moving a dataset between processes or shards can at worst miss a warm cache; it
//! can never be served a stale entry, because changed content is a changed key.
//!
//! Selection views preserve this: a view's fingerprint hashes cells *through the
//! selection in row order* and is therefore bit-identical to its materialized
//! equivalent ([`DataFrame::materialize`]) — so the zero-copy representation never
//! changes a cache key, in memory or on disk.
//!
//! The [`stats_cache`] lives in one process and keys on storage instead: every
//! column's cells carry an id drawn from a process-wide counter, shared by the
//! column's views and clones and never reused for other cells, so a statistic is
//! never served for cells it was not computed from, whichever datasets share the
//! cache.
//!
//! # Example
//!
//! ```
//! use linx_dataframe::{DataFrame, Value};
//! use linx_dataframe::filter::{CompareOp, Predicate};
//! use linx_dataframe::groupby::AggFunc;
//!
//! let df = DataFrame::from_rows(
//!     &["country", "type", "duration"],
//!     vec![
//!         vec![Value::str("India"), Value::str("Movie"), Value::Int(120)],
//!         vec![Value::str("India"), Value::str("Movie"), Value::Int(95)],
//!         vec![Value::str("US"), Value::str("TV Show"), Value::Int(45)],
//!     ],
//! )
//! .unwrap();
//!
//! let india = df
//!     .filter(&Predicate::new("country", CompareOp::Eq, Value::str("India")))
//!     .unwrap();
//! assert_eq!(india.num_rows(), 2);
//!
//! let agg = india.group_by("type", AggFunc::Count, "duration").unwrap();
//! assert_eq!(agg.num_rows(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod column;
pub mod csv;
pub mod data;
pub mod error;
pub mod filter;
pub mod fingerprint;
pub mod frame;
pub mod groupby;
pub mod schema;
pub mod sharded;
pub mod stats;
pub mod stats_cache;
pub mod value;

pub use column::Column;
pub use data::{ColumnData, NullMask, ValueRef};
pub use error::{DataFrameError, Result};
pub use frame::DataFrame;
pub use schema::{DataType, Field, Schema};
pub use stats_cache::{ColumnSummary, StatsCache, StatsCacheStats};
pub use value::{GroupKey, OwnedGroupKey, Value};
