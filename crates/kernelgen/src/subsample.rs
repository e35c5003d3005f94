//! Deterministic program sub-sampling for differential testing.
//!
//! The solver-equivalence property test (`ivy-analysis`), the dynamic
//! soundness oracle's property test, and the `table_oracle` bench all
//! derive randomized sub-programs from a generated kernel: whole
//! functions dropped, bodies of others stripped to extern declarations,
//! everything else (globals, composites, typedefs) kept. Each case then
//! exercises a different constraint graph — dangling direct calls,
//! unresolved indirect sites, orphaned function pointers — and a
//! different executable subset, while staying realistic kernel code.
//! This module is the single definition, so the harnesses cannot drift.

use ivy_cmir::ast::{Function, Program};
use std::sync::Arc;

/// A tiny deterministic RNG (SplitMix64) for the sub-sampling decisions;
/// property-test shims hand us a seed and this stretches it.
pub struct Mix(pub u64);

impl Mix {
    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// True with probability `percent`/100.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.next_u64() % 100 < percent
    }
}

/// Derives a random sub-program: each function is removed outright with
/// probability `drop_pct`%, surviving bodies are stripped to extern
/// declarations with probability `strip_pct`%, and everything else is
/// kept. Deterministic in `(seed, drop_pct, strip_pct)`.
pub fn subsample_program(base: &Program, seed: u64, drop_pct: u64, strip_pct: u64) -> Program {
    let mut rng = Mix(seed);
    let mut program = base.clone();
    program.functions = base
        .functions
        .arcs()
        .iter()
        .filter_map(|f| {
            if rng.chance(drop_pct) {
                None
            } else if f.body.is_some() && rng.chance(strip_pct) {
                let mut stripped = Function::clone(f);
                stripped.body = None;
                Some(Arc::new(stripped))
            } else {
                Some(Arc::clone(f))
            }
        })
        .collect();
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KernelBuild, KernelConfig};

    #[test]
    fn subsampling_is_deterministic_and_actually_samples() {
        let base = KernelBuild::generate(&KernelConfig::small()).program;
        let a = subsample_program(&base, 7, 30, 25);
        let b = subsample_program(&base, 7, 30, 25);
        assert_eq!(a.functions.len(), b.functions.len());
        assert!(a.functions.len() < base.functions.len());
        assert!(a.functions.iter().any(|f| f.body.is_none()));
        // Zero percentages are the identity on functions.
        let id = subsample_program(&base, 7, 0, 0);
        assert_eq!(id.functions.len(), base.functions.len());
        // Different seeds sample differently.
        let c = subsample_program(&base, 8, 30, 25);
        assert_ne!(
            a.functions.iter().map(|f| &f.name).collect::<Vec<_>>(),
            c.functions.iter().map(|f| &f.name).collect::<Vec<_>>()
        );
    }
}
