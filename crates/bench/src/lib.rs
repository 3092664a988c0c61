//! Shared helpers for the benchmark binaries.

pub mod trace_report;

use std::str::FromStr;

use gnn::GnnKind;

/// Serialises a report to `results/<name>.json`, printing where it went.
/// Failures are reported on stderr but never abort the run — the table on
/// stdout is the primary artefact.
pub fn write_report<T: serde::Serialize>(name: &str, report: &T) {
    match serde_json::to_string_pretty(report) {
        Ok(json) => {
            let path = format!("results/{name}.json");
            std::fs::create_dir_all("results").ok();
            match std::fs::write(&path, json) {
                Ok(()) => println!("wrote {path}"),
                Err(error) => eprintln!("failed to write {path}: {error}"),
            }
        }
        Err(error) => eprintln!("failed to serialise {name}: {error}"),
    }
}

/// Parses the `HLSGNN_MODELS` environment variable — a comma-separated list
/// of backbone names (`"rgcn,sage,pna"`) — into [`GnnKind`]s. Returns `None`
/// when the variable is unset or empty (callers keep their default sweep);
/// unknown names abort with a message listing the accepted values.
pub fn models_from_env() -> Option<Vec<GnnKind>> {
    let raw = std::env::var("HLSGNN_MODELS").ok()?;
    if raw.trim().is_empty() {
        return None;
    }
    let mut models = Vec::new();
    // Tolerate stray separators ("rgcn,sage," or "rgcn,,sage").
    for token in raw.split(',').map(str::trim).filter(|token| !token.is_empty()) {
        match GnnKind::from_str(token) {
            Ok(kind) => models.push(kind),
            Err(error) => {
                eprintln!("invalid HLSGNN_MODELS entry: {error}");
                std::process::exit(2);
            }
        }
    }
    if models.is_empty() {
        return None;
    }
    Some(models)
}

/// Off/on pairs behind every paired overhead gate.
pub const OVERHEAD_PAIRS: usize = 61;

/// The outcome of [`paired_overhead`]: per-arm round statistics and the
/// median per-pair overhead.
#[derive(Debug, Clone, Copy)]
pub struct PairedOverhead {
    /// Fastest round of the disabled arm, ms.
    pub min_disabled_ms: f64,
    /// Fastest round of the enabled arm, ms.
    pub min_enabled_ms: f64,
    /// Median round of the disabled arm, ms.
    pub median_disabled_ms: f64,
    /// Median round of the enabled arm, ms.
    pub median_enabled_ms: f64,
    /// Median over pairs of (enabled − disabled) / disabled, percent;
    /// negative when the enabled round of the median pair happened to be
    /// faster (pure noise).
    pub overhead_percent: f64,
}

/// Measures what switching a feature on costs: `round(enabled)` runs one
/// timed round with the feature off or on and returns its wall time in ms.
/// Rounds run in [`OVERHEAD_PAIRS`] adjacent off/on pairs, alternating which
/// arm goes first, and the overhead is the *median of the per-pair relative
/// deltas*. Drift across a run (frequency scaling, a neighbour's load) that
/// exceeds a few percent across a whole arm on a shared box cancels within
/// a pair; alternating the order cancels drift within pairs (a cache still
/// warming) instead of always charging the same arm; and the median
/// discards pairs a noise spike split.
pub fn paired_overhead(mut round: impl FnMut(bool) -> f64) -> PairedOverhead {
    let mut disabled_ms = Vec::with_capacity(OVERHEAD_PAIRS);
    let mut enabled_ms = Vec::with_capacity(OVERHEAD_PAIRS);
    let mut deltas = Vec::with_capacity(OVERHEAD_PAIRS);
    for pair in 0..OVERHEAD_PAIRS {
        let (disabled, enabled) = if pair % 2 == 0 {
            let disabled = round(false);
            (disabled, round(true))
        } else {
            let enabled = round(true);
            (round(false), enabled)
        };
        deltas.push((enabled - disabled) / disabled * 100.0);
        disabled_ms.push(disabled);
        enabled_ms.push(enabled);
    }
    let min = |samples: &[f64]| samples.iter().copied().fold(f64::INFINITY, f64::min);
    PairedOverhead {
        min_disabled_ms: min(&disabled_ms),
        min_enabled_ms: min(&enabled_ms),
        median_disabled_ms: median(&mut disabled_ms),
        median_enabled_ms: median(&mut enabled_ms),
        overhead_percent: median(&mut deltas),
    }
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paired_overhead_alternates_the_first_arm_and_takes_the_median_delta() {
        let mut calls = Vec::new();
        // The enabled arm costs 10% more, except in one pair a spike split.
        let report = paired_overhead(|enabled| {
            calls.push(enabled);
            let spike = calls.len() == 5;
            match (enabled, spike) {
                (_, true) => 500.0,
                (true, false) => 110.0,
                (false, false) => 100.0,
            }
        });
        assert_eq!(calls.len(), 2 * OVERHEAD_PAIRS);
        assert_eq!(&calls[..4], &[false, true, true, false], "pairs alternate the first arm");
        assert!((report.overhead_percent - 10.0).abs() < 1e-9, "{report:?}");
        assert_eq!(report.median_disabled_ms, 100.0);
        assert_eq!(report.median_enabled_ms, 110.0);
        assert_eq!(report.min_disabled_ms, 100.0);
    }
}
