//! Pinned points-to answers: FNV digests of the canonical solution of the
//! generated kernels, recorded before the constraint frontend was
//! rewritten to intern during generation.
//!
//! The canonical solution is every public answer a solve gives:
//! [`PointsToResult::materialize`] plus [`PointsToResult::indirect_call_targets`]
//! for every indirect call site, both rendered in `BTree` order of `Loc`
//! and site. Location ids never appear, so a frontend may intern in any
//! order; it may not change a single fact.
//!
//! CI runs this file explicitly and fails if the test is filtered out or
//! skipped (see `.github/workflows/ci.yml`).

use ivy_analysis::pointsto::{analyze, analyze_incremental, ConstraintCache, PointsToResult};
use ivy_analysis::summary::fnv1a;
use ivy_analysis::Sensitivity;
use ivy_cmir::parser::parse_program;
use ivy_kernelgen::{KernelBuild, KernelConfig};
use std::collections::BTreeSet;
use std::fmt::Write;

/// Name resolution the generated kernels never exercise: a global and a
/// function share a name, parameters and locals shadow functions (one of
/// them with a function-pointer type), a local shadows a global, a local
/// is declared twice, arrays decay, and calls go through a shadowing
/// local, an array slot and a field.
const SHADOWING: &str = r#"
    typedef handler = fnptr(u32) -> u32;
    struct node { next: struct node *; val: u32; ring: u8[8]; h: handler; }
    global head: struct node *;
    global n0: struct node;
    global g: u32;
    global table: handler[4];
    global buf: u8[16];
    #[allocator]
    fn kmalloc(size: u32, flags: u32) -> void * { return null; }
    fn f(x: u32) -> u32 { return x; }
    fn g(x: u32) -> u32 { return x; }
    fn k(x: u32) -> u32 { return x; }
    fn sink(p: u8 *) { }
    fn setup() {
        table[0] = f;
        table[1] = k;
        n0.h = &k;
        head = &n0;
    }
    fn use_all(p: struct node *, f: struct node *) -> struct node * {
        let k: handler = f->h;
        let q: struct node * = f->next;
        let head: struct node * = q;
        head = f;
        n0.h = k;
        table[2] = g;
        let r: u32 = k(3) + table[1](4) + p->h(5);
        let a: u8 * = p->ring;
        sink(buf);
        sink(a);
        let m: struct node * = kmalloc(16, 0) as struct node *;
        m->next = q;
        let q: u8 * = kmalloc(8, 0) as u8 *;
        sink(q);
        return m;
    }
"#;

/// `(kernel, sensitivity, digest)` of the canonical solution.
const PINNED: [(&str, Sensitivity, u64); 9] = [
    ("small", Sensitivity::Steensgaard, 0xe3ca_09f0_0c5f_767c),
    ("small", Sensitivity::Andersen, 0xc703_471e_d9ef_ebc8),
    ("small", Sensitivity::AndersenField, 0xecb7_1156_16e6_3fca),
    ("paper", Sensitivity::Steensgaard, 0xf233_a858_1111_9962),
    ("paper", Sensitivity::Andersen, 0xb8ba_b0a1_5641_8aaf),
    ("paper", Sensitivity::AndersenField, 0x145e_5d49_4cc0_ac50),
    ("shadowing", Sensitivity::Steensgaard, 0x1072_cabb_79e1_735b),
    ("shadowing", Sensitivity::Andersen, 0x70e5_84e2_c603_6188),
    (
        "shadowing",
        Sensitivity::AndersenField,
        0x72f7_dfa6_71f4_69d3,
    ),
];

/// The canonical text of a result: one line per non-empty points-to set,
/// then one line per indirect call site with its resolved targets.
fn canonical(r: &PointsToResult) -> String {
    let mut out = String::new();
    for (loc, set) in r.materialize() {
        writeln!(out, "{loc:?} -> {set:?}").unwrap();
    }
    let sites: BTreeSet<&(String, String)> = r.indirect_targets.keys().collect();
    for (func, callee) in sites {
        let targets = r.indirect_call_targets(func, callee);
        writeln!(out, "{func} {callee} => {targets:?}").unwrap();
    }
    out
}

#[test]
fn pointsto_answers_match_the_pinned_digests() {
    let kernels = [
        (
            "small",
            KernelBuild::generate(&KernelConfig::small()).program,
        ),
        (
            "paper",
            KernelBuild::generate(&KernelConfig::paper()).program,
        ),
        ("shadowing", parse_program(SHADOWING).expect("parses")),
    ];
    let mut mismatches = Vec::new();
    for (kernel, sensitivity, pinned) in PINNED {
        let program = &kernels.iter().find(|(k, _)| *k == kernel).unwrap().1;
        let text = canonical(&analyze(program, sensitivity));
        let digest = fnv1a(text.as_bytes());
        // The incremental path over a fresh cache answers identically.
        let incremental = analyze_incremental(program, sensitivity, &ConstraintCache::new());
        assert_eq!(
            canonical(&incremental),
            text,
            "{kernel} {}: incremental solve diverges from the one-shot solve",
            sensitivity.name()
        );
        eprintln!(
            "{kernel} {}: {digest:#018x} ({} bytes)",
            sensitivity.name(),
            text.len()
        );
        if digest != pinned {
            mismatches.push(format!(
                "{kernel} {}: digest {digest:#018x}, pinned {pinned:#018x}",
                sensitivity.name()
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "points-to answers changed:\n{}",
        mismatches.join("\n")
    );
}
