//! The Ivy benchmark: three workloads (`cold_batch`, `edit_session`,
//! `warm_serve`) measured end to end, plus a traced run that breaks one
//! operation down by layer. See `README.md` in this directory.

pub mod gen;
pub mod replay;
pub mod trace;

use ivy_cmir::parser::parse_program;
use ivy_engine::{Diagnostic, Severity};
use ivy_kernelgen::GroundTruth;

/// Nearest-rank percentile of ascending `sorted` values (`0 < q <= 1`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The reference answer for a daemon response: a fresh batch
/// `Engine::analyze` over the parse of the same source text.
pub fn batch_answer(source: &str) -> Result<String, String> {
    let program = parse_program(source).map_err(|e| format!("parse error: {e}"))?;
    Ok(ivy_core::experiments::default_engine(0)
        .analyze(&program)
        .diagnostics_json())
}

/// Checks a report against the generator's seeded defects: every
/// blocking bug is covered by a BlockStop error naming its caller, and
/// every bad-free site's function carries a CCount diagnostic.
pub fn check_ground_truth(diagnostics_json: &str, truth: &GroundTruth) -> Result<(), String> {
    let parsed = serde_json::from_str(diagnostics_json).map_err(|e| format!("{e}"))?;
    let diags: Vec<Diagnostic> = parsed
        .as_array()
        .ok_or("diagnostics are not an array")?
        .iter()
        .map(Diagnostic::from_value)
        .collect::<Option<_>>()
        .ok_or("malformed diagnostic")?;
    for bug in &truth.blocking_bugs {
        let covered = diags.iter().any(|d| {
            d.checker == "blockstop"
                && d.severity == Severity::Error
                && (d.function == bug.caller || d.message.contains(&bug.caller))
        });
        if !covered {
            return Err(format!("blocking bug in {} not reported", bug.caller));
        }
    }
    for defect in &truth.bad_free_defects {
        if !diags
            .iter()
            .any(|d| d.checker == "ccount" && d.function == defect.function)
        {
            return Err(format!("bad free in {} not flagged", defect.function));
        }
    }
    Ok(())
}
