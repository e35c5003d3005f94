//! Differential *soundness* testing of every static analysis against
//! traced executions, in the spirit of Klinger et al.: generate random
//! programs, execute them on the VM with the dynamic-fact tracer attached,
//! and require that every concrete fact is subsumed by the static answers
//! at every sensitivity (points-to, indirect-call targets, BlockStop
//! coverage of blocking-in-atomic events, CCount coverage of bad frees).
//!
//! Programs are kernelgen corpora randomly sub-sampled exactly like the
//! solver-equivalence property test (whole functions dropped, bodies
//! turned extern), so each case exercises a different constraint graph
//! *and* a different executable subset — dropped callees degrade to no-op
//! externs, traps truncate the trace, and the surviving facts must still
//! be covered. Any violation fails with a minimized reproducer.
//!
//! CI runs this file explicitly and fails if it is filtered out or
//! renamed away (see `.github/workflows/ci.yml`).

use ivy::cmir::ast::Program;
use ivy::kernelgen::{subsample_program, KernelBuild, KernelConfig};
use ivy::oracle::{EntrySpec, Oracle, OracleConfig};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Cases per property. Each case runs one traced execution session and
/// checks all three sensitivities, so every sensitivity level sees this
/// many generated programs (the acceptance floor is 100 per level).
const CASES: u32 = 110;

fn base_kernels() -> &'static Vec<Program> {
    static BASES: OnceLock<Vec<Program>> = OnceLock::new();
    BASES.get_or_init(|| {
        let mut tiny = KernelConfig::small();
        tiny.drivers = 1;
        tiny.fp_groups = 1;
        tiny.cache_defects = 1;
        tiny.ring_defects = 1;
        vec![
            KernelBuild::generate(&tiny).program,
            KernelBuild::generate(&KernelConfig::small()).program,
        ]
    })
}

/// Entries for a sub-sampled program: the boot session when it survived
/// the sampling (short: three cycles keep the per-case cost bounded),
/// otherwise whatever integer-parameter functions remain.
fn entries_for(program: &Program) -> Vec<EntrySpec> {
    let boot_defined = program
        .function("kernel_boot")
        .map(|f| f.body.is_some())
        .unwrap_or(false);
    if boot_defined {
        let mut out = vec![EntrySpec::new("kernel_boot", &[3, 0])];
        for wl in ["wl_bw_pipe", "wl_lat_fs"] {
            if program
                .function(wl)
                .map(|f| f.body.is_some())
                .unwrap_or(false)
            {
                out.push(EntrySpec::new(wl, &[2, 64]));
            }
        }
        return out;
    }
    EntrySpec::defaults_for(program, 4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn traced_executions_are_subsumed_by_every_static_analysis(
        seed in any::<u64>(),
        base_idx in 0usize..2,
        drop_pct in 0u64..40,
        strip_pct in 0u64..35,
    ) {
        let bases = base_kernels();
        let program = subsample_program(&bases[base_idx], seed, drop_pct, strip_pct);
        let entries = entries_for(&program);
        let oracle = Oracle::with_config(OracleConfig {
            max_steps: 1_500_000,
            minimize_budget: 32,
            ..OracleConfig::default()
        });
        let report = oracle.run(&program, &entries);
        prop_assert!(
            report.is_sound(),
            "soundness violations on sub-sample (seed {seed}, base {base_idx}, \
             drop {drop_pct}%, strip {strip_pct}%):\n{}",
            report.render()
        );
        // All three sensitivities were actually checked.
        prop_assert_eq!(report.precision.len(), 3);
    }
}
