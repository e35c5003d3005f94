//! The violation path: programs that *do* escape the static analyses must
//! be reported, with minimized reproducers.
//!
//! Integer-to-pointer forging is the canonical escape hatch: the points-to
//! analysis gives a forged pointer an empty abstraction, so any dynamic
//! fact it produces is unsubsumable. The oracle must flag it (and the
//! kernelgen corpus must never do it — that is the zero-violation gate).

use ivy_cmir::parser::parse_program;
use ivy_oracle::{EntrySpec, Oracle, ViolationKind};

const FORGED: &str = r#"
    global g: u32 = 7;
    fn a(x: u32) -> u32 { return x; }
    fn unrelated_helper() { }
    fn main(n: u32) -> u32 {
        // 0xF0000010: the synthetic address of the first function (`a`).
        let h: fnptr(u32) -> u32 = 4026531856 as fnptr(u32) -> u32;
        // 0x1000: the base of the globals region (`g`).
        let p: u32 * = 4096 as u32 *;
        return h(n) + *p;
    }
"#;

#[test]
fn forged_pointers_are_soundness_violations_with_reproducers() {
    let program = parse_program(FORGED).unwrap();
    let report = Oracle::default().run(&program, &[EntrySpec::new("main", &[3])]);
    assert!(!report.is_sound());

    let kinds: Vec<ViolationKind> = report.violations.iter().map(|v| v.kind).collect();
    assert!(
        kinds.contains(&ViolationKind::IndirectCall),
        "the forged function pointer reaches `a` with an empty static target set: {}",
        report.render()
    );
    assert!(
        kinds.contains(&ViolationKind::PointsTo),
        "the forged data pointer observes `g` outside the empty pts set: {}",
        report.render()
    );

    // Reproducers are attached and minimized: the unrelated helper is
    // gone, the entry session and the violating machinery survive.
    let repro = report
        .violations
        .iter()
        .find(|v| v.kind == ViolationKind::IndirectCall)
        .and_then(|v| v.reproducer.as_ref())
        .expect("reproducer attached");
    assert_eq!(repro.entries, vec![EntrySpec::new("main", &[3])]);
    assert!(!repro.source.contains("unrelated_helper"));
    assert!(repro.source.contains("fn main"));
    assert!(repro.source.contains("fn a"), "{}", repro.source);

    // The reproducer really reproduces: running the oracle on its own
    // source with its own entry session yields the same violation kind.
    let reduced = parse_program(&repro.source).unwrap();
    let again = Oracle::default().run(&reduced, &repro.entries);
    assert!(again
        .violations
        .iter()
        .any(|v| v.kind == ViolationKind::IndirectCall));

    // The report JSON carries the reproducer.
    assert!(report.to_json().contains("reproducer"));
}

#[test]
fn violations_appear_at_every_configured_sensitivity() {
    let program = parse_program(FORGED).unwrap();
    let report = Oracle::default().run(&program, &[EntrySpec::new("main", &[3])]);
    for s in ["steensgaard", "andersen", "andersen+field"] {
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.sensitivity.name() == s && v.kind == ViolationKind::IndirectCall),
            "missing {s} violation: {}",
            report.render()
        );
    }
}

/// A parameter of function type shadows a function of the same name: the
/// VM calls `f()` through the parameter, so points-to and BlockStop must
/// too. Treating `f()` as a direct call to the function `f` missed the
/// handler's call into `sleeper` and the sleep under it.
#[test]
fn a_function_typed_parameter_shadows_a_same_named_function() {
    let program = parse_program(
        r#"
        #[blocking]
        extern fn msleep(ms: u32);
        fn f() { }
        fn g() { msleep(1); }
        fn sleeper() { g(); }
        #[irq_handler]
        fn irq(f: fnptr() -> void) { f(); }
        fn main() { irq(sleeper); }
        "#,
    )
    .unwrap();
    let report = Oracle::default().run(&program, &[EntrySpec::new("main", &[])]);
    assert!(report.violations.is_empty(), "{}", report.render());
}
