//! `linx-bench` — experiment harnesses for the LINX reproduction.
//!
//! Each table and figure of the paper's evaluation (§7) has a dedicated binary in
//! `src/bin/` that regenerates it (see the per-experiment index in `docs/DESIGN.md`).
//! `benches/` holds two overhead guards, `telemetry_overhead` and `chaos_recovery`.
//! Request speed, including §7.4's claim that the compliance reward adds little to
//! session generation (`cdrl.compliance_ms` against `cdrl.step_ms`), is measured end
//! to end by e2ebench (`BENCHMARK.json` at the repository root).

#![forbid(unsafe_code)]

pub mod chain;

use linx_cdrl::CdrlConfig;

/// Read an experiment scale parameter from the environment with a default, so every
/// harness can be scaled up toward paper-scale budgets (`LINX_TRAIN_EPISODES`,
/// `LINX_DATA_ROWS`, ...) without recompiling.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The default CDRL configuration used by the experiment harnesses: the full variant
/// with a budget that finishes in minutes on a laptop. Override the episode budget with
/// `LINX_TRAIN_EPISODES`.
pub fn harness_cdrl_config(seed: u64) -> CdrlConfig {
    CdrlConfig {
        episodes: env_usize("LINX_TRAIN_EPISODES", 350),
        seed,
        ..CdrlConfig::default()
    }
}

/// Format a floating point cell the way the paper's tables do (two decimals).
pub fn cell(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_usize_falls_back_to_default() {
        assert_eq!(env_usize("LINX_SURELY_UNSET_VARIABLE", 42), 42);
    }

    #[test]
    fn harness_config_uses_full_variant() {
        let cfg = harness_cdrl_config(1);
        assert_eq!(cfg.variant, linx_cdrl::CdrlVariant::Full);
        assert_eq!(cell(1.234), "1.23");
    }
}
