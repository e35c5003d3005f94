//! Report types produced by the Deputy conversion pipeline.

use ivy_cmir::Span;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Why Deputy could not accept a construct without programmer action.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeputyDiagnostic {
    /// Function containing the construct.
    pub function: String,
    /// What is wrong (e.g. "cast between incompatible pointer types").
    pub message: String,
    /// Severity: errors must be fixed (annotate, rewrite, or trust); notes
    /// are informational.
    pub severity: Severity,
    /// Span of the offending construct (the declaration or statement it
    /// was found in), when one is known.
    pub span: Option<Span>,
}

/// Severity of a [`DeputyDiagnostic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Severity {
    /// The construct is illegal in Deputy's type system.
    Error,
    /// Informational (e.g. a default annotation was inferred).
    Note,
}

/// Outcome of one access site examined by the checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SiteOutcome {
    /// Proven safe at compile time; no run-time check needed.
    Static,
    /// A run-time check was inserted.
    Runtime,
    /// Inside trusted code; not checked.
    Trusted,
    /// Could not be handled (remains an error).
    Error,
}

/// Statistics and diagnostics from a conversion run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ConversionReport {
    /// Memory-access sites proven safe statically.
    pub static_discharged: u64,
    /// Run-time checks inserted, by check kind.
    pub runtime_checks: BTreeMap<String, u64>,
    /// Checks later removed by the redundancy optimiser.
    pub checks_optimized_away: u64,
    /// Access sites skipped because the enclosing function (or pointer) is
    /// trusted.
    pub trusted_sites: u64,
    /// Default annotations inferred for legacy (unannotated) pointers.
    pub inferred_defaults: u64,
    /// Diagnostics (annotation errors, illegal casts, ...).
    pub diagnostics: Vec<DeputyDiagnostic>,
    /// Per-function count of inserted checks (for hot-spot reporting).
    pub checks_per_function: BTreeMap<String, u64>,
}

impl ConversionReport {
    /// Total number of run-time checks inserted (after optimisation).
    pub fn total_runtime_checks(&self) -> u64 {
        self.runtime_checks.values().sum()
    }

    /// Number of hard errors.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// True when the program was accepted (no errors remain).
    pub fn accepted(&self) -> bool {
        self.error_count() == 0
    }

    /// Fraction of examined sites that were discharged statically.
    pub fn static_ratio(&self) -> f64 {
        let total = self.static_discharged + self.total_runtime_checks();
        if total == 0 {
            1.0
        } else {
            self.static_discharged as f64 / total as f64
        }
    }

    /// Records an inserted check of a kind.
    pub fn count_check(&mut self, kind: &str, function: &str) {
        add(&mut self.runtime_checks, kind, 1);
        add(&mut self.checks_per_function, function, 1);
    }

    /// Accumulates another report into this one (used to combine the
    /// per-function reports of [`crate::convert_function`]).
    pub fn merge(&mut self, other: &ConversionReport) {
        self.static_discharged += other.static_discharged;
        self.checks_optimized_away += other.checks_optimized_away;
        self.trusted_sites += other.trusted_sites;
        self.inferred_defaults += other.inferred_defaults;
        for (kind, n) in &other.runtime_checks {
            add(&mut self.runtime_checks, kind, *n);
        }
        for (function, n) in &other.checks_per_function {
            add(&mut self.checks_per_function, function, *n);
        }
        self.diagnostics.extend(other.diagnostics.iter().cloned());
    }
}

/// Adds `n` to the count of `key`, allocating the key only on its first
/// insert.
fn add(counts: &mut BTreeMap<String, u64>, key: &str, n: u64) {
    match counts.get_mut(key) {
        Some(count) => *count += n,
        None => {
            counts.insert(key.to_string(), n);
        }
    }
}

/// The annotation-burden statistics of §2.1 (experiment E2).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BurdenStats {
    /// Total source lines of the (pretty-printed) program.
    pub total_lines: u64,
    /// Lines carrying a programmer-written Deputy annotation.
    pub annotated_lines: u64,
    /// Lines inside trusted code (trusted functions or trusted pointers).
    pub trusted_lines: u64,
    /// Number of functions in the program.
    pub functions: u64,
    /// Number of functions marked trusted.
    pub trusted_functions: u64,
    /// Per-subsystem breakdown: (total lines, annotated lines).
    pub per_subsystem: BTreeMap<String, (u64, u64)>,
}

impl BurdenStats {
    /// Annotated lines as a fraction of total lines.
    pub fn annotated_fraction(&self) -> f64 {
        if self.total_lines == 0 {
            0.0
        } else {
            self.annotated_lines as f64 / self.total_lines as f64
        }
    }

    /// Trusted lines as a fraction of total lines.
    pub fn trusted_fraction(&self) -> f64 {
        if self.total_lines == 0 {
            0.0
        } else {
            self.trusted_lines as f64 / self.total_lines as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accounting() {
        let mut r = ConversionReport::default();
        r.count_check("bounds", "skb_push");
        r.count_check("bounds", "skb_push");
        r.count_check("nonnull", "vfs_read");
        r.static_discharged = 7;
        assert_eq!(r.total_runtime_checks(), 3);
        assert_eq!(r.checks_per_function["skb_push"], 2);
        assert!((r.static_ratio() - 0.7).abs() < 1e-9);
        assert!(r.accepted());
        r.diagnostics.push(DeputyDiagnostic {
            function: "f".into(),
            message: "bad cast".into(),
            severity: Severity::Error,
            span: None,
        });
        assert!(!r.accepted());
    }

    #[test]
    fn burden_fractions() {
        let b = BurdenStats {
            total_lines: 1000,
            annotated_lines: 6,
            trusted_lines: 8,
            ..BurdenStats::default()
        };
        assert!((b.annotated_fraction() - 0.006).abs() < 1e-9);
        assert!((b.trusted_fraction() - 0.008).abs() < 1e-9);
        assert_eq!(BurdenStats::default().annotated_fraction(), 0.0);
    }
}
