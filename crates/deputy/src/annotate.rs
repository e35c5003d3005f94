//! Annotation validation and default inference.
//!
//! Deputy annotations are written by programmers and are *untrusted*: the
//! checker validates that they are well-formed (bounds expressions only
//! mention names that are actually in scope) and the run-time checks that
//! `ivy-deputy::instrument` inserts will catch annotations that are wrong
//! about the data.
//!
//! The inference pass handles the incremental-conversion story: legacy
//! pointers with no annotation get a sensible default — `single` when the
//! pointer is only dereferenced, `auto` when it is indexed or used in pointer
//! arithmetic — so that a file can be converted without touching every
//! declaration. Inferred defaults are reported separately from programmer
//! annotations so the burden statistics (E2) stay honest.

use crate::report::{ConversionReport, DeputyDiagnostic, Severity};
use ivy_cmir::ast::{Expr, Function, Program, Stmt};
use ivy_cmir::types::{Bounds, PtrAnnot, Type};
use ivy_cmir::visit;
use std::collections::BTreeSet;

/// Validates every annotation in the program, appending diagnostics to the
/// report. Returns the number of annotations examined.
pub fn validate_annotations(program: &Program, report: &mut ConversionReport) -> u64 {
    let mut examined = 0;
    let globals: BTreeSet<&str> = program
        .globals
        .iter()
        .map(|g| g.decl.name.as_str())
        .collect();

    // Struct/union field annotations may reference sibling fields.
    for comp in &program.composites {
        let siblings: BTreeSet<String> = comp.fields.iter().map(|f| f.name.clone()).collect();
        for field in &comp.fields {
            examined += count_annotations(&field.ty);
            for var in annotation_vars(&field.ty) {
                if !siblings.contains(&var) && !globals.contains(var.as_str()) {
                    report.diagnostics.push(DeputyDiagnostic {
                        function: format!("{}::{}", comp.name, field.name),
                        message: format!(
                            "bounds annotation mentions `{var}`, which is neither a sibling field nor a global"
                        ),
                        severity: Severity::Error,
                        span: Some(field.span),
                    });
                }
            }
            if let Some((tag, _)) = &field.when {
                if !siblings.contains(tag) {
                    report.diagnostics.push(DeputyDiagnostic {
                        function: format!("{}::{}", comp.name, field.name),
                        message: format!("when() refers to unknown tag field `{tag}`"),
                        severity: Severity::Error,
                        span: Some(field.span),
                    });
                }
            }
        }
    }

    // Globals may reference other globals.
    for g in &program.globals {
        examined += count_annotations(&g.decl.ty);
        for var in annotation_vars(&g.decl.ty) {
            if !globals.contains(var.as_str()) {
                report.diagnostics.push(DeputyDiagnostic {
                    function: format!("global {}", g.decl.name),
                    message: format!("bounds annotation mentions unknown global `{var}`"),
                    severity: Severity::Error,
                    span: Some(g.decl.span),
                });
            }
        }
    }

    // Function signatures and locals may reference parameters, earlier
    // locals, and globals.
    for f in &program.functions {
        let mut in_scope: BTreeSet<&str> = f.params.iter().map(|p| p.name.as_str()).collect();
        for p in &f.params {
            examined += count_annotations(&p.ty);
            for var in annotation_vars(&p.ty) {
                if !in_scope.contains(var.as_str()) && !globals.contains(var.as_str()) {
                    report.diagnostics.push(DeputyDiagnostic {
                        function: f.name.clone(),
                        message: format!(
                            "annotation on parameter `{}` mentions `{var}`, which is not in scope",
                            p.name
                        ),
                        severity: Severity::Error,
                        span: Some(if p.span.is_real() { p.span } else { f.span }),
                    });
                }
            }
        }
        examined += count_annotations(&f.ret);
        visit::walk_fn_stmts(f, &mut |s| {
            if let Stmt::Local(decl, _) = s {
                examined += count_annotations(&decl.ty);
                for var in annotation_vars(&decl.ty) {
                    if !in_scope.contains(var.as_str())
                        && !globals.contains(var.as_str())
                        && decl.name != var
                    {
                        report.diagnostics.push(DeputyDiagnostic {
                            function: f.name.clone(),
                            message: format!(
                                "annotation on local `{}` mentions `{var}`, which is not in scope",
                                decl.name
                            ),
                            severity: Severity::Error,
                            span: Some(if decl.span.is_real() {
                                decl.span
                            } else {
                                f.span
                            }),
                        });
                    }
                }
                in_scope.insert(decl.name.as_str());
            }
        });
    }
    examined
}

/// The defaulted environment instrumentation reads: composites, typedefs,
/// globals, and every function's signature with `body: None`. Unannotated
/// pointers in globals and fields default to `auto` (without per-site
/// usage information the conservative choice, always checkable at run
/// time); a defined function's parameters default as in [`with_defaults`],
/// and an extern's are left as written. Bodies are only read, to count the
/// defaults their locals get once [`with_defaults`] applies them; the total
/// is added to `report.inferred_defaults`.
pub fn default_env(program: &Program, report: &mut ConversionReport) -> Program {
    let mut inferred = 0;
    let functions = program
        .functions
        .iter()
        .map(|f| {
            let mut sig = signature(f);
            if f.body.is_some() {
                let arithmetic_ptrs = pointers_used_with_arithmetic(f);
                inferred += default_params(&mut sig, &arithmetic_ptrs);
                visit::walk_fn_stmts(f, &mut |s| {
                    if let Stmt::Local(decl, _) = s {
                        inferred += apply_default(&mut decl.ty.clone(), false);
                    }
                });
            }
            sig
        })
        .collect();
    let mut globals = program.globals.clone();
    for g in &mut globals {
        inferred += apply_default(&mut g.decl.ty, true);
    }
    let mut composites = program.composites.clone();
    for c in &mut composites {
        for field in &mut c.fields {
            inferred += apply_default(&mut field.ty, true);
        }
    }
    report.inferred_defaults += inferred;
    Program {
        composites,
        typedefs: program.typedefs.clone(),
        globals,
        functions,
    }
}

/// One function with default annotations for its unannotated pointer
/// parameters and locals: `auto` bounds for pointers that the function
/// indexes or offsets ([`pointers_used_with_arithmetic`]), `single` for
/// everything else. An extern declaration is returned as written. The
/// body is copied once, with the defaults applied on the way.
pub fn with_defaults(func: &Function) -> Function {
    let Some(body) = &func.body else {
        return func.clone();
    };
    let arithmetic_ptrs = pointers_used_with_arithmetic(func);
    let mut out = signature(func);
    default_params(&mut out, &arithmetic_ptrs);
    out.body = Some(visit::map_block(body, &mut |s| match s {
        Stmt::Local(mut decl, init) => {
            apply_default(&mut decl.ty, arithmetic_ptrs.contains(&decl.name));
            vec![Stmt::Local(decl, init)]
        }
        other => vec![other],
    }));
    out
}

/// A function's header without its body.
fn signature(func: &Function) -> Function {
    Function {
        name: func.name.clone(),
        params: func.params.clone(),
        ret: func.ret.clone(),
        body: None,
        attrs: func.attrs.clone(),
        subsystem: func.subsystem.clone(),
        span: func.span,
    }
}

fn default_params(func: &mut Function, arithmetic_ptrs: &BTreeSet<String>) -> u64 {
    func.params
        .iter_mut()
        .map(|p| apply_default(&mut p.ty, arithmetic_ptrs.contains(&p.name)))
        .sum()
}

fn apply_default(ty: &mut Type, used_with_arithmetic: bool) -> u64 {
    match ty {
        Type::Ptr(inner, ann) => {
            let mut n = apply_default(inner, used_with_arithmetic);
            if !ann.trusted && matches!(ann.bounds, Bounds::Unknown) {
                ann.bounds = if used_with_arithmetic {
                    Bounds::Auto
                } else {
                    Bounds::Single
                };
                n += 1;
            }
            n
        }
        Type::Array(inner, _) => apply_default(inner, used_with_arithmetic),
        _ => 0,
    }
}

/// Names of parameters/locals that the function indexes or uses in pointer
/// arithmetic (candidates for `auto` bounds rather than `single`).
pub fn pointers_used_with_arithmetic(func: &Function) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    visit::walk_fn_stmts(func, &mut |stmt| {
        visit::walk_stmt_exprs(stmt, &mut |e| match e {
            Expr::Index(base, idx) => {
                if let Expr::Var(name) = &**base {
                    if !matches!(**idx, Expr::Int(0)) {
                        out.insert(name.clone());
                    }
                }
            }
            Expr::Binary(ivy_cmir::BinOp::Add | ivy_cmir::BinOp::Sub, a, _) => {
                if let Expr::Var(name) = &**a {
                    out.insert(name.clone());
                }
            }
            _ => {}
        });
    });
    out
}

fn count_annotations(ty: &Type) -> u64 {
    match ty {
        Type::Ptr(inner, ann) => u64::from(ann.is_annotated()) + count_annotations(inner),
        Type::Array(inner, _) => count_annotations(inner),
        Type::Func(ft) => {
            count_annotations(&ft.ret) + ft.params.iter().map(count_annotations).sum::<u64>()
        }
        _ => 0,
    }
}

fn annotation_vars(ty: &Type) -> Vec<String> {
    match ty {
        Type::Ptr(inner, ann) => {
            let mut v = ann.free_vars();
            v.extend(annotation_vars(inner));
            v
        }
        Type::Array(inner, _) => annotation_vars(inner),
        Type::Func(ft) => {
            let mut v = annotation_vars(&ft.ret);
            for p in &ft.params {
                v.extend(annotation_vars(p));
            }
            v
        }
        _ => Vec::new(),
    }
}

/// Returns the effective pointer annotation of an expression's type, if the
/// expression has pointer type.
pub fn annot_of_type(ty: &Type) -> Option<&PtrAnnot> {
    ty.ptr_annot()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivy_cmir::parser::parse_program;

    #[test]
    fn well_formed_annotations_pass() {
        let src = r#"
            struct sk_buff { len: u32; data: u8 * count(len); }
            global n_devices: u32 = 4;
            global devices: u8 * count(n_devices);
            fn f(buf: u8 * count(n), n: u32) -> u8 { return buf[0]; }
        "#;
        let p = parse_program(src).unwrap();
        let mut r = ConversionReport::default();
        let examined = validate_annotations(&p, &mut r);
        assert!(r.accepted(), "{:?}", r.diagnostics);
        assert!(examined >= 3);
    }

    #[test]
    fn out_of_scope_annotation_rejected() {
        let src = r#"
            struct sk_buff { len: u32; data: u8 * count(payload_size); }
            fn f(buf: u8 * count(m), n: u32) -> u8 { return buf[0]; }
        "#;
        let p = parse_program(src).unwrap();
        let mut r = ConversionReport::default();
        validate_annotations(&p, &mut r);
        assert_eq!(r.error_count(), 2);
    }

    /// Pins the scope rules of function annotations: params and locals may
    /// name globals, a local may name itself, a local shadowing a global is
    /// in scope, and only a name that is none of these is reported.
    #[test]
    fn function_annotation_scope_diagnostics_are_pinned() {
        let src = r#"
            global limit: u32 = 8;
            global n: u32 = 4;
            fn f(buf: u8 * count(limit)) {
                let local_g: u8 * count(limit) = null;
                let itself: u8 * count(itself) = null;
                let n: u32 = 2;
                let shadowed: u8 * count(n) = null;
                let early: u8 * count(later) = null;
                let later: u32 = 1;
            }
        "#;
        let p = parse_program(src).unwrap();
        let mut r = ConversionReport::default();
        let examined = validate_annotations(&p, &mut r);
        assert_eq!(examined, 5);
        let mut early_span = None;
        visit::walk_fn_stmts(p.function("f").unwrap(), &mut |s| {
            if let Stmt::Local(decl, _) = s {
                if decl.name == "early" {
                    early_span = Some(decl.span);
                }
            }
        });
        assert!(early_span.is_some_and(|s| s.is_real()));
        assert_eq!(
            r.diagnostics,
            vec![DeputyDiagnostic {
                function: "f".into(),
                message: "annotation on local `early` mentions `later`, which is not in scope"
                    .into(),
                severity: Severity::Error,
                span: early_span,
            }]
        );
    }

    #[test]
    fn bad_when_tag_rejected() {
        let src = r#"
            struct pkt { kind: u32; echo: u32 when(typ == 8); }
        "#;
        let p = parse_program(src).unwrap();
        let mut r = ConversionReport::default();
        validate_annotations(&p, &mut r);
        assert_eq!(r.error_count(), 1);
    }

    #[test]
    fn defaults_single_vs_auto() {
        let src = r#"
            fn only_deref(p: u32 *) -> u32 { return *p; }
            fn walks(p: u32 *, n: u32) -> u32 {
                let acc: u32 = 0;
                let i: u32 = 0;
                let cur: u32 * = p;
                while (i < n) { acc = acc + p[i]; i = i + 1; }
                return acc;
            }
        "#;
        let p = parse_program(src).unwrap();
        let bounds = |ty: &Type| ty.ptr_annot().unwrap().bounds.clone();
        let only = with_defaults(p.function("only_deref").unwrap());
        assert_eq!(bounds(&only.params[0].ty), Bounds::Single);
        let walks = with_defaults(p.function("walks").unwrap());
        assert_eq!(bounds(&walks.params[0].ty), Bounds::Auto);
        let mut local = None;
        visit::walk_fn_stmts(&walks, &mut |s| {
            if let Stmt::Local(decl, _) = s {
                if decl.name == "cur" {
                    local = Some(bounds(&decl.ty));
                }
            }
        });
        assert_eq!(local, Some(Bounds::Single));
    }

    /// The environment carries the same parameter defaults as
    /// [`with_defaults`], no body, untouched extern parameters, and counts
    /// the defaults the bodies' locals will get.
    #[test]
    fn default_env_is_body_free_and_counts_local_defaults() {
        let src = r#"
            struct node { next: struct node *; }
            global head: struct node *;
            extern fn ext(p: u8 *);
            fn walks(p: u32 *, n: u32) -> u32 {
                let cur: u32 * = p;
                return p[n];
            }
        "#;
        let p = parse_program(src).unwrap();
        let mut r = ConversionReport::default();
        let env = default_env(&p, &mut r);
        // Field, global, one parameter and one local.
        assert_eq!(r.inferred_defaults, 4);
        assert!(env.functions.iter().all(|f| f.body.is_none()));
        assert_eq!(
            env.function("walks").unwrap().params,
            with_defaults(p.function("walks").unwrap()).params
        );
        let ext = &env.function("ext").unwrap().params[0].ty;
        assert_eq!(ext.ptr_annot().unwrap().bounds, Bounds::Unknown);
        let head = &env.global("head").unwrap().decl.ty;
        assert_eq!(head.ptr_annot().unwrap().bounds, Bounds::Auto);
    }

    #[test]
    fn trusted_pointers_not_defaulted() {
        let src = "fn f(p: u32 * trusted) -> u32 { return p[4]; }";
        let p = parse_program(src).unwrap();
        let f = with_defaults(p.function("f").unwrap());
        let ann = f.params[0].ty.ptr_annot().unwrap();
        assert!(ann.trusted);
        assert_eq!(ann.bounds, Bounds::Unknown);
    }

    #[test]
    fn inference_is_idempotent() {
        let src = "fn walks(p: u32 *, n: u32) -> u32 { let q: u32 * = p; return p[n]; }";
        let mut p = parse_program(src).unwrap();
        let once = with_defaults(&p.functions[0]);
        assert_ne!(once, p.functions[0]);
        assert_eq!(with_defaults(&once), once);
        p.functions[0] = once;
        let mut r = ConversionReport::default();
        default_env(&p, &mut r);
        assert_eq!(
            r.inferred_defaults, 0,
            "already-annotated pointers must not be touched again"
        );
    }
}
