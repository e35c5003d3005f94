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
use ivy_cmir::ast::{Function, Globals, Program, Stmt};
use ivy_cmir::facts::{signature, FnFacts};
use ivy_cmir::functions::Functions;
use ivy_cmir::types::CompositeDef;
use ivy_cmir::visit;
use std::collections::BTreeSet;
use std::sync::Arc;

pub use ivy_cmir::facts::pointers_used_with_arithmetic;

/// Validates every annotation in the program, appending diagnostics to the
/// report. Returns the number of annotations examined.
pub fn validate_annotations(program: &Program, report: &mut ConversionReport) -> u64 {
    let items = prepare_items(program);
    report.diagnostics.extend(items.diagnostics);
    items.examined + validate_functions(program, &FnFacts::all(program), report)
}

/// The defaulted environment instrumentation reads: composites, typedefs,
/// globals, and every function's signature with `body: None`. Unannotated
/// pointers in globals and fields default to `auto` (without per-site
/// usage information the conservative choice, always checkable at run
/// time); a defined function's parameters default as in [`with_defaults`],
/// and an extern's are left as written. The defaults the bodies' locals
/// get once [`with_defaults`] applies them are added to
/// `report.inferred_defaults` too.
pub fn default_env(program: &Program, report: &mut ConversionReport) -> Program {
    let items = prepare_items(program);
    let (functions, inferred) = default_functions(program, &FnFacts::all(program));
    report.inferred_defaults += items.inferred_defaults + inferred;
    items.env(program, functions)
}

/// What Deputy prepares from the items outside functions: the globals and
/// composites with default bounds, and the validation of their
/// annotations. It reads no function.
#[derive(Debug, Clone)]
pub struct Items {
    /// The globals, unannotated pointers defaulted to `auto`.
    pub globals: Globals,
    /// The composites, unannotated field pointers defaulted to `auto`.
    pub composites: Arc<Vec<CompositeDef>>,
    /// Defaults given.
    pub inferred_defaults: u64,
    /// Annotations examined.
    pub examined: u64,
    /// Validation diagnostics: composite fields' first, then globals'.
    pub diagnostics: Vec<DeputyDiagnostic>,
}

impl Items {
    /// The environment of `program` with these items and `functions`.
    pub fn env(&self, program: &Program, functions: Functions) -> Program {
        Program {
            composites: Arc::clone(&self.composites),
            typedefs: program.typedefs.clone(),
            globals: self.globals.clone(),
            functions,
        }
    }
}

/// [`Items`] of a program.
pub fn prepare_items(program: &Program) -> Items {
    let mut examined = 0;
    let mut diagnostics = Vec::new();
    let is_global = |var: &str| program.global(var).is_some();

    // Struct/union field annotations may reference sibling fields.
    for comp in program.composites.iter() {
        let siblings: BTreeSet<&str> = comp.fields.iter().map(|f| f.name.as_str()).collect();
        for field in &comp.fields {
            examined += field.ty.annotation_count();
            for var in field.ty.annotation_vars() {
                if !siblings.contains(var.as_str()) && !is_global(&var) {
                    diagnostics.push(DeputyDiagnostic {
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
                if !siblings.contains(tag.as_str()) {
                    diagnostics.push(DeputyDiagnostic {
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
    for g in program.globals.iter() {
        examined += g.decl.ty.annotation_count();
        for var in g.decl.ty.annotation_vars() {
            if !is_global(&var) {
                diagnostics.push(DeputyDiagnostic {
                    function: format!("global {}", g.decl.name),
                    message: format!("bounds annotation mentions unknown global `{var}`"),
                    severity: Severity::Error,
                    span: Some(g.decl.span),
                });
            }
        }
    }

    let mut inferred_defaults = 0;
    let mut globals = program.globals.clone();
    for g in Arc::make_mut(&mut globals) {
        inferred_defaults += g.decl.ty.apply_default_bounds(true);
    }
    let mut composites = program.composites.clone();
    for c in Arc::make_mut(&mut composites) {
        for field in &mut c.fields {
            inferred_defaults += field.ty.apply_default_bounds(true);
        }
    }
    Items {
        globals,
        composites,
        inferred_defaults,
        examined,
        diagnostics,
    }
}

/// Validates the functions' annotations from their facts (`facts[i]` for
/// `program.functions[i]`): parameters and locals may reference
/// parameters, earlier locals, and globals. Reads no function body;
/// returns the number of annotations examined.
pub fn validate_functions(
    program: &Program,
    facts: &[Arc<FnFacts>],
    report: &mut ConversionReport,
) -> u64 {
    let mut examined = 0;
    for (f, facts) in program.functions.iter().zip(facts) {
        examined += facts.annotations;
        for escape in &facts.annotation_escapes {
            if program.global(&escape.var).is_some() {
                continue;
            }
            let what = if escape.parameter {
                "parameter"
            } else {
                "local"
            };
            report.diagnostics.push(DeputyDiagnostic {
                function: f.name.clone(),
                message: format!(
                    "annotation on {what} `{}` mentions `{}`, which is not in scope",
                    escape.name, escape.var
                ),
                severity: Severity::Error,
                span: Some(
                    escape
                        .span
                        .map_or(f.span, |span| span.shift_lines(f.span.start.line)),
                ),
            });
        }
    }
    examined
}

/// Every function's signature with its defaults, from the functions'
/// facts (`facts[i]` for `program.functions[i]`), sharing each signature
/// the facts hold; and the defaults the defined functions' parameters and
/// locals get. Reads no function body.
pub fn default_functions(program: &Program, facts: &[Arc<FnFacts>]) -> (Functions, u64) {
    let mut inferred = 0;
    let functions = program
        .functions
        .iter()
        .zip(facts)
        .map(|(f, facts)| {
            inferred += facts.inferred_defaults;
            facts.signature_at(f)
        })
        .collect();
    (functions, inferred)
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
    for p in &mut out.params {
        p.ty.apply_default_bounds(arithmetic_ptrs.contains(&p.name));
    }
    out.body = Some(visit::map_block(body, &mut |s| match s {
        Stmt::Local(mut decl, init) => {
            decl.ty
                .apply_default_bounds(arithmetic_ptrs.contains(&decl.name));
            vec![Stmt::Local(decl, init)]
        }
        other => vec![other],
    }));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivy_cmir::parser::parse_program;
    use ivy_cmir::types::{Bounds, Type};

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
