//! Differential testing of the worklist and union-find points-to solvers
//! against the retained naive reference, in the spirit of Klinger et al.'s
//! differential program-analysis testing: generate random programs, run
//! every solver at every sensitivity, and require *identical* `pts` and
//! `indirect_targets`.
//!
//! Programs are derived from `ivy-kernelgen` corpora: a generated kernel is
//! randomly sub-sampled (whole functions dropped, bodies of others turned
//! extern) so every case exercises a different constraint graph — dangling
//! direct calls, unresolved indirect sites, orphaned function pointers —
//! while staying realistic kernel code. The incremental path re-solves each
//! case against one shared [`ConstraintCache`], so cross-program batch and
//! interner reuse is under the same identity check.
//!
//! CI runs this file explicitly and fails if these tests are filtered out
//! or skipped (see `.github/workflows/ci.yml`).

use ivy_analysis::pointsto::{
    analyze, analyze_incremental, analyze_naive, analyze_with, verify_derivations, ConstraintCache,
    Loc, PointsToResult, Sensitivity, SolveOptions, SolverChoice,
};
use ivy_cmir::ast::Program;
use ivy_kernelgen::{subsample_program, KernelBuild, KernelConfig};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// Cases per property; each case checks all three sensitivities, so every
/// sensitivity level sees this many generated programs (the acceptance
/// floor is 100 per level).
const CASES: u32 = 110;

/// Base kernels, generated once for the whole run.
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

/// One constraint cache per sensitivity, shared across *all* generated
/// cases so the incremental path is exercised with genuine cross-program
/// batch and interner reuse.
fn shared_caches() -> &'static [ConstraintCache; 3] {
    static CACHES: OnceLock<[ConstraintCache; 3]> = OnceLock::new();
    CACHES.get_or_init(|| {
        [
            ConstraintCache::new(),
            ConstraintCache::new(),
            ConstraintCache::new(),
        ]
    })
}

/// The single-set query path agrees with the whole-map view: `points_to`
/// returns exactly `map`'s entry (the result's own `materialize()`) for
/// every location in it, and the empty set for an interned location with no
/// set (a pointee that is not itself a key) and for a location no solve
/// ever interned.
fn queries_match_map(
    r: &PointsToResult,
    map: &BTreeMap<Loc, BTreeSet<Loc>>,
    what: &str,
) -> Result<(), String> {
    for (loc, set) in map {
        prop_assert_eq!(&r.points_to(loc), set, "{} query for `{}`", what, loc);
        for p in set.iter().filter(|p| !map.contains_key(*p)) {
            prop_assert!(
                r.points_to(p).is_empty(),
                "{what} query for set-less `{p}` is not empty"
            );
        }
    }
    let never = Loc::Temp {
        func: "never interned".into(),
        id: u32::MAX,
    };
    prop_assert!(
        r.points_to(&never).is_empty(),
        "{what} query for a never-interned location is not empty"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn worklist_and_incremental_match_naive_on_generated_programs(
        seed in any::<u64>(),
        base_idx in 0usize..2,
        drop_pct in 0u64..40,
        strip_pct in 0u64..35,
    ) {
        let bases = base_kernels();
        let caches = shared_caches();
        let program = subsample_program(&bases[base_idx], seed, drop_pct, strip_pct);
        for (i, s) in [
            Sensitivity::Steensgaard,
            Sensitivity::Andersen,
            Sensitivity::AndersenField,
        ]
        .into_iter()
        .enumerate()
        {
            let slow = analyze_naive(&program, s);
            let want = slow.materialize();
            let fast = analyze(&program, s);
            let got = fast.materialize();
            prop_assert_eq!(got, want, "pts diverge at {}", s.name());
            queries_match_map(&fast, &got, s.name())?;
            prop_assert_eq!(
                &fast.indirect_targets, &slow.indirect_targets,
                "indirect targets diverge at {}", s.name()
            );
            prop_assert_eq!(fast.initial_constraints, slow.initial_constraints);
            prop_assert_eq!(fast.constraint_count, slow.constraint_count);

            // Both Steensgaard encodings, pinned explicitly: automatic
            // dispatch picks union-find, and the mirrored-subset worklist
            // is what provenance solves run on.
            if s == Sensitivity::Steensgaard {
                for solver in [SolverChoice::UnionFind, SolverChoice::Worklist] {
                    let r = analyze_with(&program, s, SolveOptions {
                        solver,
                        ..SolveOptions::default()
                    });
                    let got = r.materialize();
                    prop_assert_eq!(&got, &want, "{:?} pts diverge", solver);
                    queries_match_map(&r, &got, "explicit Steensgaard solver")?;
                    prop_assert_eq!(
                        &r.indirect_targets, &slow.indirect_targets,
                        "{:?} indirect targets diverge", solver
                    );
                    prop_assert_eq!(r.initial_constraints, slow.initial_constraints);
                    prop_assert_eq!(r.constraint_count, slow.constraint_count);
                }
            }

            // The cache-backed path must agree too (shared interner,
            // cross-program batch reuse).
            let incr = analyze_incremental(&program, s, &caches[i]);
            let got = incr.materialize();
            prop_assert_eq!(got, want, "cached pts diverge at {}", s.name());
            queries_match_map(&incr, &got, s.name())?;
            prop_assert_eq!(
                &incr.indirect_targets, &slow.indirect_targets,
                "cached indirect targets diverge at {}", s.name()
            );
        }
    }

    /// Provenance recording changes nothing: at every sensitivity, the
    /// recording worklist produces byte-identical answers to the plain
    /// solve, and every recorded derivation replays —
    /// each step's conclusion follows from its premises by a real rule
    /// (AddrOf seed, static copy, or a justified dynamic edge), premises
    /// strictly precede conclusions in the arena, and the recorded facts
    /// are exactly the final sets.
    #[test]
    fn provenance_solves_are_identical_and_replay_on_generated_programs(
        seed in any::<u64>(),
        base_idx in 0usize..2,
        drop_pct in 0u64..40,
        strip_pct in 0u64..35,
    ) {
        let bases = base_kernels();
        let program = subsample_program(&bases[base_idx], seed, drop_pct, strip_pct);
        for s in [
            Sensitivity::Steensgaard,
            Sensitivity::Andersen,
            Sensitivity::AndersenField,
        ] {
            let plain = analyze_with(&program, s, SolveOptions::default());
            let traced = analyze_with(&program, s, SolveOptions::default().with_provenance(true));
            prop_assert_eq!(
                traced.materialize(), plain.materialize(),
                "provenance pts diverge at {}", s.name()
            );
            prop_assert_eq!(
                &traced.indirect_targets, &plain.indirect_targets,
                "provenance indirect targets diverge at {}", s.name()
            );
            prop_assert_eq!(traced.initial_constraints, plain.initial_constraints);
            prop_assert_eq!(traced.constraint_count, plain.constraint_count);
            let replayed = verify_derivations(&program, &traced);
            prop_assert!(
                replayed.is_ok(),
                "replay failed at {}: {}", s.name(),
                replayed.unwrap_err()
            );
            prop_assert_eq!(replayed.unwrap(), traced.provenance_facts());
        }
    }
}
