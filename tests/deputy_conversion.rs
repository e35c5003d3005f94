//! Pins Deputy's whole-program conversion of the generated kernels: the
//! FNV-1a digest of the pretty-printed deputized program from
//! `Deputy::convert`, plus the small kernel's report counts. A refactor of
//! the conversion may change how the program is built, never what comes
//! out. The engine plugin keeps only per-function reports, from a walk that
//! builds no body: each must equal `convert_function`'s report for its
//! function, and merged into the prepared report they must reproduce the
//! conversion's report.

use ivy::cmir::pretty::pretty_program;
use ivy::deputy::{convert_function, ConversionReport, Deputy, DeputyChecker};
use ivy::engine::AnalysisCtx;
use ivy::kernelgen::{KernelBuild, KernelConfig};
use std::collections::BTreeMap;

const PINNED_CONVERSIONS: [(&str, u64); 2] = [
    ("small", 0xdcb3_7280_e445_11c3),
    ("paper", 0x4124_1b62_08c7_6fce),
];

fn kernel(name: &str) -> ivy::cmir::ast::Program {
    let config = match name {
        "small" => KernelConfig::small(),
        _ => KernelConfig::paper(),
    };
    KernelBuild::generate(&config).program
}

#[test]
fn deputy_conversion_matches_the_pinned_digests() {
    let mut mismatches = Vec::new();
    for (kernel, pinned) in PINNED_CONVERSIONS {
        let direct = Deputy::new().convert(&self::kernel(kernel));
        let digest = ivy::analysis::summary::fnv1a(pretty_program(&direct.program).as_bytes());
        eprintln!("{kernel}: {digest:#018x}");
        if digest != pinned {
            mismatches.push(format!(
                "{kernel}: digest {digest:#018x}, pinned {pinned:#018x}"
            ));
        }
        if kernel == "small" {
            let report = &direct.report;
            assert_eq!(report.inferred_defaults, 130);
            assert_eq!(report.static_discharged, 103);
            assert_eq!(report.checks_optimized_away, 26);
            assert_eq!(report.trusted_sites, 2);
            let runtime: BTreeMap<&str, u64> = report
                .runtime_checks
                .iter()
                .map(|(kind, n)| (kind.as_str(), *n))
                .collect();
            assert_eq!(
                runtime,
                BTreeMap::from([("bounds", 22), ("nonnull", 157), ("union_tag", 2)])
            );
        }
    }
    assert!(
        mismatches.is_empty(),
        "conversion changed:\n{}",
        mismatches.join("\n")
    );
}

/// The engine plugin's per-function reports, merged into its prepared
/// report, equal `Deputy::convert`'s report on both kernels, except
/// `checks_optimized_away`: only the whole-program optimiser sets it.
#[test]
fn per_function_deputy_reports_merge_into_the_conversion_report() {
    for (kernel, _) in PINNED_CONVERSIONS {
        let program = self::kernel(kernel);
        let direct = Deputy::new().convert(&program).report;
        let ctx = AnalysisCtx::new(&program);
        let checker = DeputyChecker::new();
        let mut merged: ConversionReport = checker.prepared(&ctx).report.clone();
        for func in ctx.program.functions.iter().filter(|f| f.body.is_some()) {
            merged.merge(&checker.instrumented(&ctx, func));
        }
        assert_eq!(merged.checks_optimized_away, 0, "{kernel}");
        assert!(direct.checks_optimized_away > 0, "{kernel}");
        merged.checks_optimized_away = direct.checks_optimized_away;
        assert_eq!(merged, direct, "{kernel}");
    }
}

/// Each function's report from the engine plugin, its lines re-based on
/// the function, equals the report `convert_function` gives that function
/// when it builds the instrumented body: on the small and paper kernels
/// and one about twice the paper kernel's size. Compared one function at
/// a time, so errors that cancel out in a merged report still show.
#[test]
fn per_function_deputy_reports_match_convert_function() {
    let twice_paper = KernelConfig {
        drivers: 8,
        fp_groups: 30,
        cache_defects: 54,
        ring_defects: 52,
        ..KernelConfig::paper()
    };
    let kernels = [
        ("small", KernelConfig::small()),
        ("paper", KernelConfig::paper()),
        ("twice paper", twice_paper),
    ];
    for (kernel, config) in kernels {
        let program = KernelBuild::generate(&config).program;
        let (env, _) = Deputy::new().prepare(&program);
        let ctx = AnalysisCtx::new(&program);
        let checker = DeputyChecker::new();
        let mut compared = 0;
        let mut mismatches = Vec::new();
        for func in ctx.program.functions.iter().filter(|f| f.body.is_some()) {
            let mut engine: ConversionReport = (*checker.instrumented(&ctx, func)).clone();
            let start = func.span.start.line;
            for d in &mut engine.diagnostics {
                d.span = d.span.map(|span| span.shift_lines(start));
            }
            let built = convert_function(&env, func).1;
            if engine != built {
                mismatches.push(format!(
                    "{}:\n  engine {engine:?}\n  built  {built:?}",
                    func.name
                ));
            }
            compared += 1;
        }
        assert!(compared > 100, "{kernel}: {compared} functions");
        assert!(
            mismatches.is_empty(),
            "{kernel}: {} of {compared} functions differ:\n{}",
            mismatches.len(),
            mismatches.join("\n")
        );
    }
}
