//! A shareable memo of materialized query-op results.
//!
//! Executing an exploration tree materializes one result view per node. Across a batch
//! of goals over the *same* dataset — the `linx-engine` serving path — sessions share
//! many operation prefixes (e.g. every "India" goal starts with the same filter), and a
//! single session is re-executed by the notebook renderer, the narrative generator, and
//! the reward scorer. An [`OpMemo`] caches views keyed by the canonical *operation path*
//! from the root, so each distinct computation happens once per dataset.
//!
//! The memo is keyed by op path, which identifies a view only relative to one root
//! dataset: never share an `OpMemo` between executors over different datasets. Each
//! `linx-engine` dataset context owns one memo, so it lives as long as its context:
//! one batch for `Router::run_batch`, which builds a context per batch, and the whole
//! daemon for `linx serve`, which builds one context per dataset when it starts. It is
//! capped at 16k views, not by bytes, and sits outside the engine's byte budget.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use linx_dataframe::DataFrame;

/// The most views one memo stores. It bounds memory when a memo is shared with a whole
/// training run (tens of thousands of op executions over one dataset); once full,
/// further distinct views are computed but not retained (counted as misses).
const MAX_VIEWS: usize = 16 * 1024;

/// Thread-safe cache of op-path → materialized view, with hit/miss counters.
#[derive(Debug, Default)]
pub struct OpMemo {
    views: Mutex<HashMap<String, DataFrame>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A point-in-time snapshot of memo effectiveness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpMemoStats {
    /// Views served from the memo.
    pub hits: u64,
    /// Views computed and inserted.
    pub misses: u64,
    /// Distinct views currently stored.
    pub entries: u64,
}

impl OpMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up the view for an op path, or compute and store it.
    ///
    /// `compute` runs outside the lock (computation can be slow); on a race the first
    /// inserted view wins, so concurrent executors converge on one copy (`DataFrame`
    /// clones share columns, making the winning copy cheap to hand out).
    pub fn get_or_compute<E>(
        &self,
        path: &str,
        compute: impl FnOnce() -> Result<DataFrame, E>,
    ) -> Result<DataFrame, E> {
        if let Some(view) = self.views.lock().expect("memo lock").get(path) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(view.clone());
        }
        let computed = compute()?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut views = self.views.lock().expect("memo lock");
        if views.len() >= MAX_VIEWS && !views.contains_key(path) {
            return Ok(computed);
        }
        Ok(views.entry(path.to_string()).or_insert(computed).clone())
    }

    /// Effectiveness counters.
    pub fn stats(&self) -> OpMemoStats {
        OpMemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.views.lock().expect("memo lock").len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linx_dataframe::Value;

    fn frame(n: i64) -> DataFrame {
        DataFrame::from_rows(&["x"], (0..n).map(|i| vec![Value::Int(i)]).collect()).unwrap()
    }

    #[test]
    fn memo_computes_once_per_path() {
        let memo = OpMemo::new();
        let mut calls = 0;
        for _ in 0..3 {
            let v: Result<_, ()> = memo.get_or_compute("F,a,eq,1", || {
                calls += 1;
                Ok(frame(4))
            });
            assert_eq!(v.unwrap().num_rows(), 4);
        }
        assert_eq!(calls, 1);
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
    }

    #[test]
    fn errors_are_not_cached() {
        let memo = OpMemo::new();
        let err: Result<DataFrame, &str> = memo.get_or_compute("p", || Err("boom"));
        assert!(err.is_err());
        let ok: Result<DataFrame, &str> = memo.get_or_compute("p", || Ok(frame(1)));
        assert_eq!(ok.unwrap().num_rows(), 1);
        assert_eq!(memo.stats().misses, 1);
    }
}
