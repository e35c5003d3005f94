//! Pins Deputy's whole-program conversion of the generated kernels: the
//! FNV-1a digest of the pretty-printed deputized program, reached both
//! through `Deputy::convert` and through the engine plugin's memoized
//! assembly, plus the small kernel's report counts. A refactor of the
//! conversion may change how the program is built, never what comes out.

use ivy::cmir::pretty::pretty_program;
use ivy::deputy::{Deputy, DeputyChecker};
use ivy::engine::AnalysisCtx;
use ivy::kernelgen::{KernelBuild, KernelConfig};
use std::collections::BTreeMap;

const PINNED_CONVERSIONS: [(&str, u64); 2] = [
    ("small", 0xdcb3_7280_e445_11c3),
    ("paper", 0x4124_1b62_08c7_6fce),
];

#[test]
fn deputy_conversion_matches_the_pinned_digests() {
    let mut mismatches = Vec::new();
    for (kernel, pinned) in PINNED_CONVERSIONS {
        let config = match kernel {
            "small" => KernelConfig::small(),
            _ => KernelConfig::paper(),
        };
        let program = KernelBuild::generate(&config).program;
        let direct = Deputy::new().convert(&program);
        let via_plugin = DeputyChecker::new().conversion(&AnalysisCtx::new(&program));
        for (path, conversion) in [("convert", &direct), ("plugin", &*via_plugin)] {
            let digest =
                ivy::analysis::summary::fnv1a(pretty_program(&conversion.program).as_bytes());
            eprintln!("{kernel} {path}: {digest:#018x}");
            if digest != pinned {
                mismatches.push(format!(
                    "{kernel} {path}: digest {digest:#018x}, pinned {pinned:#018x}"
                ));
            }
        }
        assert_eq!(direct.report, via_plugin.report, "{kernel}");
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
