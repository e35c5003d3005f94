//! The Deputy conversion pass: static checking plus run-time check insertion.
//!
//! For every memory access in non-trusted code the checker decides between
//! three outcomes, mirroring §2.1's hybrid checking:
//!
//! * **static** — the access is provably in bounds (constant index within a
//!   constant bound, or an index guarded by the enclosing loop condition), so
//!   no code is inserted;
//! * **run-time** — a [`Check`] statement is inserted immediately before the
//!   access (`__check_bounds`, `__check_nonnull`, `__check_union`, ...);
//! * **trusted** — the enclosing function or the pointer itself is marked
//!   `trusted`, so Deputy looks away and the site is counted in the trusted
//!   statistics.
//!
//! One walk over a function body decides every site. It gives each
//! parameter and local its default bounds as it binds it, and fills the
//! function's [`ConversionReport`]. Built, it also writes the instrumented
//! body ([`convert_function`]); report-only ([`function_report`]), it copies
//! no statement and constructs no check.
//!
//! Annotations are untrusted: the inserted checks evaluate the annotation's
//! bound expression at run time, so a wrong `count(n)` manifests as a check
//! failure rather than silent memory corruption.

use crate::annotate;
use crate::report::{ConversionReport, DeputyDiagnostic, Severity};
use ivy_cmir::ast::{BinOp, Block, Check, Expr, Function, Program, Stmt, VarDecl};
use ivy_cmir::facts::{signature, FnFacts};
use ivy_cmir::typecheck::TypeCtx;
use ivy_cmir::types::{BoundExpr, Bounds, PtrAnnot, Type};
use ivy_cmir::visit;
use ivy_cmir::Span;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Result of converting a program with Deputy.
#[derive(Debug, Clone)]
pub struct Conversion {
    /// The instrumented ("deputized") program.
    pub program: Program,
    /// Statistics and diagnostics.
    pub report: ConversionReport,
}

/// The Deputy tool.
#[derive(Debug, Clone, Copy, Default)]
pub struct Deputy;

impl Deputy {
    /// Creates a Deputy instance.
    pub fn new() -> Self {
        Deputy
    }

    /// The preparation half of a conversion: annotation validation plus
    /// the body-free, defaulted environment that instrumentation reads
    /// (see [`annotate::default_env`]), without any check insertion. The
    /// engine adapter runs this once per program (memoized in the shared
    /// analysis context) and then drives [`function_report`] per
    /// function, which is what makes Deputy checking per-function and
    /// incrementally cacheable.
    pub fn prepare(&self, program: &Program) -> (Program, ConversionReport) {
        self.prepare_with(
            program,
            &annotate::prepare_items(program),
            &FnFacts::all(program),
        )
    }

    /// [`Deputy::prepare`] from the program's prepared [`annotate::Items`]
    /// and every function's facts (`facts[i]` for `program.functions[i]`),
    /// reading no body: the engine adapter passes the items and facts it
    /// memoizes.
    pub fn prepare_with(
        &self,
        program: &Program,
        items: &annotate::Items,
        facts: &[Arc<FnFacts>],
    ) -> (Program, ConversionReport) {
        let mut report = ConversionReport {
            diagnostics: items.diagnostics.clone(),
            ..ConversionReport::default()
        };
        annotate::validate_functions(program, facts, &mut report);
        let (functions, inferred) = annotate::default_functions(program, facts);
        report.inferred_defaults = items.inferred_defaults + inferred;
        (items.env(program, functions), report)
    }

    /// Converts (deputizes) a whole program: every defined function is
    /// instrumented against the prepared environment and put in place of
    /// its signature, the per-function reports are merged into the
    /// preparation report, and the redundant-check optimiser runs last.
    pub fn convert(&self, program: &Program) -> Conversion {
        let facts = FnFacts::all(program);
        let (env, mut report) =
            self.prepare_with(program, &annotate::prepare_items(program), &facts);
        let mut converted = env.clone();
        for (func, facts) in program.functions.iter().zip(&facts) {
            if let Some(instrumented) = walk(&env, func, &facts.arithmetic, true, &mut report) {
                converted.add_function(instrumented);
            }
        }
        report.checks_optimized_away = crate::optimize::eliminate_redundant_checks(&mut converted);
        Conversion {
            program: converted,
            report,
        }
    }
}

/// Defaults and instruments one defined function of a program against its
/// [prepared](Deputy::prepare) environment, returning the instrumented
/// function and a report containing only this function's contribution
/// (check counts, static discharges, diagnostics). Merging these
/// per-function reports into the preparation report reproduces
/// [`Deputy::convert`]'s report up to `checks_optimized_away`, which only
/// the whole-program optimiser sets.
pub fn convert_function(env: &Program, func: &Function) -> (Function, ConversionReport) {
    let mut report = ConversionReport::default();
    let arithmetic = FnFacts::of(func).arithmetic;
    let instrumented =
        walk(env, func, &arithmetic, true, &mut report).expect("convert_function requires a body");
    (instrumented, report)
}

/// [`convert_function`]'s report alone, from the function's facts: the
/// same walk, building no body and constructing no check.
pub fn function_report(env: &Program, func: &Function, facts: &FnFacts) -> ConversionReport {
    let mut report = ConversionReport::default();
    walk(env, func, &facts.arithmetic, false, &mut report);
    report
}

/// The one walk over a function's body. It adds the function's counts and
/// diagnostics to `report`, and when `build` is set it returns the
/// function with default bounds on its parameters and locals and a check
/// before every access that needs one; `None` for an extern or when not
/// building. `arithmetic` is the function's [`FnFacts::arithmetic`].
fn walk(
    env: &Program,
    func: &Function,
    arithmetic: &BTreeSet<String>,
    build: bool,
    report: &mut ConversionReport,
) -> Option<Function> {
    let body = func.body.as_ref()?;
    let mut ctx = TypeCtx::new(env);
    let mut params = Vec::new();
    for p in &func.params {
        let ty = defaulted(p, arithmetic);
        if build {
            params.push(VarDecl {
                ty: ty.clone(),
                ..p.clone()
            });
        }
        ctx.bind(&p.name, ty);
    }
    let mut inst = Instrumenter {
        program: env,
        func,
        arithmetic,
        report,
        build,
        facts: Vec::new(),
        current_span: func.span,
    };
    let body = inst.walk_block(body, &mut ctx);
    build.then(|| Function {
        params,
        body: Some(body),
        ..signature(func)
    })
}

/// A dominating comparison fact `lhs < rhs` collected from enclosing loop and
/// branch conditions, used to discharge bounds checks statically.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LessFact<'p> {
    lhs: &'p Expr,
    rhs: &'p Expr,
}

struct Instrumenter<'p, 'r> {
    program: &'p Program,
    func: &'p Function,
    /// The function's [`FnFacts::arithmetic`].
    arithmetic: &'r BTreeSet<String>,
    report: &'r mut ConversionReport,
    /// Whether the walk writes the instrumented body; without it the
    /// walk's blocks stay empty and only the report is filled.
    build: bool,
    facts: Vec<LessFact<'p>>,
    /// Span of the statement currently being walked; diagnostics raised
    /// while checking its expressions attach here (line-accurate SARIF).
    current_span: Span,
}

impl<'p> Instrumenter<'p, '_> {
    /// Walks a block in its own scope; returns the rewritten block, empty
    /// when not building.
    fn walk_block(&mut self, block: &'p Block, ctx: &mut TypeCtx<'p>) -> Block {
        let mark = ctx.scope_mark();
        let mut out = Vec::with_capacity(if self.build { block.stmts.len() } else { 0 });
        for stmt in &block.stmts {
            self.walk_stmt(stmt, ctx, &mut out);
        }
        ctx.scope_reset(mark);
        Block::new(out)
    }

    /// [`Instrumenter::walk_block`] with `fact` known to hold inside.
    fn walk_block_under(
        &mut self,
        fact: Option<LessFact<'p>>,
        block: &'p Block,
        ctx: &mut TypeCtx<'p>,
    ) -> Block {
        let pushed = fact.map(|f| self.facts.push(f)).is_some();
        let out = self.walk_block(block, ctx);
        if pushed {
            self.facts.pop();
        }
        out
    }

    /// Checks one statement, writing the checks it needs and then the
    /// statement itself to `out` when building.
    fn walk_stmt(&mut self, stmt: &'p Stmt, ctx: &mut TypeCtx<'p>, out: &mut Vec<Stmt>) {
        if stmt.span().is_real() {
            self.current_span = stmt.span();
        }
        match stmt {
            Stmt::Expr(e, _) | Stmt::Return(Some(e), _) => {
                self.check_expr(e, ctx, out);
                self.keep(out, || stmt.clone());
            }
            Stmt::Assign(lhs, rhs, _) => {
                self.check_expr(rhs, ctx, out);
                self.check_expr(lhs, ctx, out);
                self.keep(out, || stmt.clone());
            }
            Stmt::Local(decl, init) => {
                if let Some(e) = init {
                    self.check_expr(e, ctx, out);
                }
                let ty = defaulted(decl, self.arithmetic);
                self.keep(out, || {
                    let decl = VarDecl {
                        ty: ty.clone(),
                        ..decl.clone()
                    };
                    Stmt::Local(decl, init.clone())
                });
                ctx.bind(&decl.name, ty);
            }
            Stmt::Return(None, _) | Stmt::Break(_) | Stmt::Continue(_) | Stmt::Check(..) => {
                self.keep(out, || stmt.clone());
            }
            Stmt::If(cond, then_b, else_b, span) => {
                self.check_expr(cond, ctx, out);
                let then_new = self.walk_block_under(less_fact_of(cond), then_b, ctx);
                let else_new = else_b.as_ref().map(|b| self.walk_block(b, ctx));
                self.keep(out, || Stmt::If(cond.clone(), then_new, else_new, *span));
            }
            Stmt::While(cond, body, span) => {
                self.check_expr(cond, ctx, out);
                // The loop condition dominates the body only if the variables
                // it mentions are not reassigned before the access; accept the
                // canonical counted-loop shape where the index advances as the
                // final statement of the body.
                let fact = less_fact_of(cond).filter(|f| counted_loop_shape(f, body));
                let body_new = self.walk_block_under(fact, body, ctx);
                self.keep(out, || Stmt::While(cond.clone(), body_new, *span));
            }
            Stmt::Block(b) => {
                let inner = self.walk_block(b, ctx);
                self.keep(out, || Stmt::Block(inner));
            }
            Stmt::DelayedFreeScope(b, span) => {
                let inner = self.walk_block(b, ctx);
                self.keep(out, || Stmt::DelayedFreeScope(inner, *span));
            }
        }
    }

    /// Writes a statement to `out` when building.
    fn keep(&self, out: &mut Vec<Stmt>, stmt: impl FnOnce() -> Stmt) {
        if self.build {
            out.push(stmt());
        }
    }

    /// Checks every memory access inside `e`.
    fn check_expr(&mut self, e: &Expr, ctx: &TypeCtx<'p>, out: &mut Vec<Stmt>) {
        visit::walk_expr(e, &mut |sub| self.check_access(sub, ctx, out));
    }

    /// Checks a single access expression. A trusted function checks
    /// nothing and counts its access sites.
    fn check_access(&mut self, e: &Expr, ctx: &TypeCtx<'p>, out: &mut Vec<Stmt>) {
        if self.func.attrs.trusted {
            if matches!(e, Expr::Index(..) | Expr::Deref(_) | Expr::Arrow(..)) {
                self.report.trusted_sites += 1;
            }
            return;
        }
        match e {
            Expr::Index(base, idx) => self.check_index(base, idx, ctx, out),
            Expr::Deref(base) => self.check_index(base, &Expr::Int(0), ctx, out),
            Expr::Arrow(obj, field) => self.check_arrow(obj, field, ctx, out),
            Expr::Field(obj, field) => {
                if let Ok(obj_ty) = ctx.type_of(obj) {
                    let resolved = self.program.resolve_type(&obj_ty);
                    self.union_tag_check(resolved, obj, field, false, out);
                }
            }
            Expr::Cast(to, inner) => self.diagnose_cast(to, inner, ctx),
            _ => {}
        }
    }

    fn check_index(&mut self, base: &Expr, idx: &Expr, ctx: &TypeCtx<'p>, out: &mut Vec<Stmt>) {
        let Ok(base_ty) = ctx.type_of(base) else {
            return;
        };
        match self.program.resolve_type(&base_ty) {
            &Type::Array(_, n) => {
                // Fixed-size arrays: constant indices are checked at compile
                // time, variable indices get a run-time check against the
                // constant length.
                if let Expr::Int(i) = idx {
                    if *i >= 0 && (*i as u64) < n {
                        self.report.static_discharged += 1;
                    } else {
                        self.diagnose(
                            Severity::Error,
                            format!("index {i} is provably outside array of length {n}"),
                        );
                    }
                    return;
                }
                if self.fact_discharges(idx, &Expr::Int(n as i64)) {
                    self.report.static_discharged += 1;
                    return;
                }
                self.emit(out, "bounds", || Check::PtrBounds {
                    ptr: Expr::addr_of(Expr::index(base.clone(), Expr::Int(0))),
                    index: idx.clone(),
                    len: Some(Expr::Int(n as i64)),
                });
            }
            Type::Ptr(_, ann) => self.check_ptr_access(base, idx, ann, out),
            _ => {}
        }
    }

    fn check_ptr_access(&mut self, base: &Expr, idx: &Expr, ann: &PtrAnnot, out: &mut Vec<Stmt>) {
        if ann.trusted {
            self.report.trusted_sites += 1;
            return;
        }
        let len = match &ann.bounds {
            Bounds::Single => {
                if let Expr::Int(0) = idx {
                    self.report.static_discharged += 1;
                    return;
                }
                Some(Expr::Int(1))
            }
            Bounds::Count(ce) => {
                let len = lower_bound_expr(ce, base);
                if let (Expr::Int(i), Expr::Int(n)) = (idx, &len) {
                    if *i >= 0 && i < n {
                        self.report.static_discharged += 1;
                    } else {
                        self.diagnose(
                            Severity::Error,
                            format!("index {i} provably outside count({n})"),
                        );
                    }
                    return;
                }
                if self.fact_discharges(idx, &len) {
                    self.report.static_discharged += 1;
                    return;
                }
                Some(len)
            }
            // No environment expression describes the extent: fall back to
            // the run-time object-extent lookup (`auto` semantics).
            Bounds::Bound(..) | Bounds::Auto | Bounds::Unknown => None,
        };
        self.emit(out, "bounds", || Check::PtrBounds {
            ptr: base.clone(),
            index: idx.clone(),
            len,
        });
    }

    fn check_arrow(&mut self, obj: &Expr, field: &str, ctx: &TypeCtx<'p>, out: &mut Vec<Stmt>) {
        let Ok(obj_ty) = ctx.type_of(obj) else {
            return;
        };
        let resolved = self.program.resolve_type(&obj_ty);
        let Type::Ptr(_, ann) = resolved else {
            return;
        };
        if ann.trusted {
            self.report.trusted_sites += 1;
            return;
        }
        // Union-arm guard, if the field carries one.
        if self.union_tag_check(resolved, obj, field, true, out) {
            return;
        }
        if ann.nonnull || matches!(obj, Expr::AddrOf(_)) {
            self.report.static_discharged += 1;
        } else {
            self.emit(out, "nonnull", || Check::NonNull(obj.clone()));
        }
    }

    /// Emits the tag check of a `when` field; true if the field has one.
    fn union_tag_check(
        &mut self,
        obj_ty: &Type,
        obj: &Expr,
        field: &str,
        through_ptr: bool,
        out: &mut Vec<Stmt>,
    ) -> bool {
        let program = self.program;
        let comp_name = match obj_ty {
            Type::Struct(n) | Type::Union(n) => n,
            Type::Ptr(inner, _) if through_ptr => match program.resolve_type(inner) {
                Type::Struct(n) | Type::Union(n) => n,
                _ => return false,
            },
            _ => return false,
        };
        let Some((tag, value)) = program
            .composite(comp_name)
            .and_then(|def| def.field(field))
            .and_then(|fld| fld.when.as_ref())
        else {
            return false;
        };
        self.emit(out, "union_tag", || Check::UnionTag {
            // The check needs the object lvalue; `*obj` re-exposes it.
            obj: if through_ptr {
                Expr::deref(obj.clone())
            } else {
                obj.clone()
            },
            field: field.to_string(),
            tag: tag.clone(),
            value: *value,
        });
        true
    }

    fn diagnose_cast(&mut self, to: &Type, inner: &Expr, ctx: &TypeCtx<'p>) {
        let program = self.program;
        let Ok(from_ty) = ctx.type_of(inner) else {
            return;
        };
        match (program.resolve_type(&from_ty), program.resolve_type(to)) {
            (Type::Int(_), Type::Ptr(_, ann)) if !ann.trusted && !matches!(inner, Expr::Int(0)) => {
                self.diagnose(
                    Severity::Error,
                    "cast from integer to pointer requires a trusted annotation".into(),
                );
            }
            (Type::Ptr(from_inner, _), Type::Ptr(to_inner, to_ann)) => {
                let from_base = program.resolve_type(from_inner);
                let to_base = program.resolve_type(to_inner);
                let benign = matches!(from_base, Type::Void)
                    || matches!(to_base, Type::Void)
                    || matches!(to_base, Type::Int(k) if k.size() == 1)
                    || from_base.same_repr(to_base)
                    || to_ann.trusted;
                if !benign {
                    self.diagnose(Severity::Note, format!(
                        "cast between distinct pointer base types `{from_base}` and `{to_base}` is checked dynamically via bounds"
                    ));
                }
            }
            _ => {}
        }
    }

    fn fact_discharges(&self, idx: &Expr, len: &Expr) -> bool {
        self.facts.iter().any(|f| f.lhs == idx && f.rhs == len)
    }

    /// Counts a run-time check of `kind` and, when building, writes it to
    /// `out`, before the statement that needs it.
    fn emit(&mut self, out: &mut Vec<Stmt>, kind: &'static str, check: impl FnOnce() -> Check) {
        self.report.count_check(kind, &self.func.name);
        if self.build {
            let check = check();
            debug_assert_eq!(check.kind(), kind);
            out.push(Stmt::Check(check, Span::synthetic()));
        }
    }

    fn diagnose(&mut self, severity: Severity, message: String) {
        self.report.diagnostics.push(DeputyDiagnostic {
            function: self.func.name.clone(),
            message,
            severity,
            span: Some(self.current_span).filter(|s| s.is_real()),
        });
    }
}

/// A parameter's or local's type with Deputy's default bounds: `auto`
/// for a pointer in `arithmetic`, `single` otherwise.
fn defaulted(decl: &VarDecl, arithmetic: &BTreeSet<String>) -> Type {
    let mut ty = decl.ty.clone();
    ty.apply_default_bounds(arithmetic.contains(&decl.name));
    ty
}

/// Extracts an `lhs < rhs` (or `rhs > lhs`) fact from a condition.
fn less_fact_of(cond: &Expr) -> Option<LessFact<'_>> {
    match cond {
        Expr::Binary(BinOp::Lt, a, b) => Some(LessFact { lhs: a, rhs: b }),
        Expr::Binary(BinOp::Gt, a, b) => Some(LessFact { lhs: b, rhs: a }),
        _ => None,
    }
}

/// True if the loop body has the canonical counted-loop shape with respect to
/// the fact's variables: the index variable is only assigned by the final
/// statement of the body, and the bound variable is never assigned.
fn counted_loop_shape(fact: &LessFact<'_>, body: &Block) -> bool {
    let Expr::Var(index_var) = fact.lhs else {
        return false;
    };
    let bound_vars = fact.rhs.vars_read();
    let n = body.stmts.len();
    body.stmts.iter().enumerate().all(|(i, stmt)| {
        let mut bad = false;
        visit::walk_stmt(stmt, &mut |s| match s {
            Stmt::Assign(Expr::Var(v), _, _) => {
                bad |= bound_vars.contains(v) || (v == index_var && i + 1 != n);
            }
            Stmt::Local(d, _) => {
                bad |= d.name == *index_var || bound_vars.contains(&d.name);
            }
            _ => {}
        });
        !bad
    })
}

/// Lowers an annotation bound expression into a program expression, resolving
/// sibling-field references against the base object of the access.
fn lower_bound_expr(be: &BoundExpr, base: &Expr) -> Expr {
    match be {
        BoundExpr::Const(c) => Expr::Int(*c),
        BoundExpr::Var(v) | BoundExpr::SelfField(v) => {
            // If the annotated pointer is a struct field (`skb->data`), a bare
            // name in its annotation refers to a sibling field (`skb->len`).
            match base {
                Expr::Arrow(obj, _) => Expr::arrow((**obj).clone(), v.clone()),
                Expr::Field(obj, _) => Expr::field((**obj).clone(), v.clone()),
                _ => Expr::var(v.clone()),
            }
        }
        BoundExpr::Add(a, b) => Expr::add(lower_bound_expr(a, base), lower_bound_expr(b, base)),
        BoundExpr::Sub(a, b) => Expr::sub(lower_bound_expr(a, base), lower_bound_expr(b, base)),
        BoundExpr::Mul(a, b) => Expr::mul(lower_bound_expr(a, base), lower_bound_expr(b, base)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivy_cmir::parser::parse_program;

    fn convert(src: &str) -> Conversion {
        let p = parse_program(src).unwrap();
        Deputy::new().convert(&p)
    }

    fn checks_in(program: &Program, func: &str) -> Vec<Check> {
        checks_of(program.function(func).unwrap())
    }

    fn checks_of(func: &Function) -> Vec<Check> {
        let mut out = Vec::new();
        visit::walk_fn_stmts(func, &mut |s| {
            if let Stmt::Check(c, _) = s {
                out.push(c.clone());
            }
        });
        out
    }

    /// `name` of `src` converted against the prepared environment, with its
    /// report; fails unless the report-only walk gives the same report.
    fn walked(src: &str, name: &str) -> (Function, ConversionReport) {
        let p = parse_program(src).unwrap();
        let (env, _) = Deputy::new().prepare(&p);
        let func = p.function(name).unwrap();
        let (built, report) = convert_function(&env, func);
        assert_eq!(
            function_report(&env, func, &FnFacts::of(func)),
            report,
            "{name}: the report-only walk disagrees with the built one"
        );
        (built, report)
    }

    fn runtime(report: &ConversionReport) -> Vec<(&str, u64)> {
        let counts = report.runtime_checks.iter();
        counts.map(|(kind, n)| (kind.as_str(), *n)).collect()
    }

    /// A trusted function gets its defaults and no check, and counts each
    /// access site once, nested ones included; its casts are not
    /// diagnosed.
    #[test]
    fn report_walk_matches_on_a_trusted_function() {
        let (built, report) = walked(
            r#"
            #[trusted]
            fn raw(p: u32 *, i: u32) -> u32 {
                let q: u32 * = p + 1;
                let r: u32 * = i as u32 *;
                if (i < 4) { q[i] = *p; }
                return *r;
            }
            "#,
            "raw",
        );
        assert_eq!(report.trusted_sites, 3);
        assert_eq!(report.static_discharged, 0);
        assert!(report.runtime_checks.is_empty() && report.diagnostics.is_empty());
        assert!(checks_of(&built).is_empty());
        let bounds = |ty: &Type| ty.ptr_annot().unwrap().bounds.clone();
        assert_eq!(bounds(&built.params[0].ty), Bounds::Auto);
        let mut locals = Vec::new();
        visit::walk_fn_stmts(&built, &mut |s| {
            if let Stmt::Local(decl, _) = s {
                locals.push((decl.name.as_str(), bounds(&decl.ty)));
            }
        });
        assert_eq!(locals, [("q", Bounds::Auto), ("r", Bounds::Single)]);
    }

    /// The counted-loop shape, read statement by statement: an index
    /// assignment nested in the final statement keeps the loop counted,
    /// one nested in an earlier statement does not.
    #[test]
    fn report_walk_matches_on_counted_loops() {
        let (built, report) = walked(
            r#"
            fn fill(buf: u8 * count(n), n: u32, c: u32) {
                let i: u32 = 0;
                while (i < n) {
                    buf[i] = 0;
                    if (c) { i = i + 1; } else { i = i + 2; }
                }
                while (i < n) {
                    if (c) { i = i + 1; }
                    buf[i] = 0;
                    i = i + 1;
                }
            }
            "#,
            "fill",
        );
        assert_eq!(report.static_discharged, 1);
        assert_eq!(runtime(&report), [("bounds", 1)]);
        assert_eq!(report.checks_per_function["fill"], 1);
        assert_eq!(checks_of(&built).len(), 1);
    }

    /// A `when` field through a nullable pointer takes the tag check in
    /// place of the null check.
    #[test]
    fn report_walk_matches_on_a_union_tag_arrow() {
        let (built, report) = walked(
            r#"
            struct pkt { kind: u32; echo: u32 when(kind == 8); other: u32; }
            fn f(p: struct pkt * opt) -> u32 { return p->echo + p->other; }
            "#,
            "f",
        );
        assert_eq!(runtime(&report), [("nonnull", 1), ("union_tag", 1)]);
        let checks = checks_of(&built);
        assert_eq!(checks.len(), 2);
        match &checks[0] {
            Check::UnionTag {
                obj,
                field,
                tag,
                value,
            } => {
                assert_eq!(ivy_cmir::pretty::expr_str(obj), "*p");
                assert_eq!((field.as_str(), tag.as_str(), *value), ("echo", "kind", 8));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(checks[1], Check::NonNull(_)));
    }

    /// An integer cast to a pointer is an error at the statement's line;
    /// a null literal or a trusted target type is not.
    #[test]
    fn report_walk_matches_on_int_to_pointer_casts() {
        let src = r#"
            fn f(x: u32) -> u32 * {
                let ok: u32 * = 0 as u32 *;
                let fine: u32 * trusted = x as u32 * trusted;
                return x as u32 *;
            }
        "#;
        let (_, report) = walked(src, "f");
        assert_eq!(report.error_count(), 1, "{:?}", report.diagnostics);
        let diagnostic = &report.diagnostics[0];
        assert_eq!(
            diagnostic.message,
            "cast from integer to pointer requires a trusted annotation"
        );
        assert_eq!(diagnostic.span.map(|s| s.start.line), Some(5));
    }

    /// A local shadowing a parameter is bound with its own type, defaulted
    /// or not, for its scope, and the parameter's comes back after it.
    #[test]
    fn report_walk_matches_on_a_local_shadowing_a_parameter() {
        let src = r#"
            fn f(p: u32 * count(n), n: u32) -> u32 {
                let acc: u32 = *p;
                if (n > 0) {
                    let p: u32 * = null;
                    acc = acc + *p;
                }
                return acc + *p;
            }
            fn g(q: u32 *, i: u32) -> u32 {
                let acc: u32 = 0;
                if (i > 0) {
                    let q: u32 * count(2) = null;
                    acc = q[1];
                }
                return acc + q[1];
            }
            fn h(r: u32 *) -> u32 { return *r; }
        "#;
        // The local `p` defaults to `single`, so only its own access is
        // discharged; the parameter's two take its `count(n)`.
        let (built, report) = walked(src, "f");
        assert_eq!(report.static_discharged, 1);
        assert_eq!(runtime(&report), [("bounds", 2)]);
        let checks = checks_of(&built);
        assert!(
            checks
                .iter()
                .all(|c| matches!(c, Check::PtrBounds { len: Some(Expr::Var(n)), .. } if n == "n")),
            "{checks:?}"
        );
        // The parameter `q` defaults to `auto`; the local's `count(2)`
        // discharges its own access.
        let (built, report) = walked(src, "g");
        assert_eq!(report.static_discharged, 1);
        assert_eq!(runtime(&report), [("bounds", 1)]);
        let checks = checks_of(&built);
        assert!(
            matches!(&checks[..], [Check::PtrBounds { len: None, .. }]),
            "{checks:?}"
        );
        // A parameter only dereferenced defaults to `single`.
        let (built, report) = walked(src, "h");
        assert_eq!(report.static_discharged, 1);
        assert!(report.runtime_checks.is_empty() && checks_of(&built).is_empty());
    }

    #[test]
    fn counted_pointer_gets_bounds_check_with_annotation_length() {
        let c = convert(
            r#"
            fn get(buf: u8 * count(n), n: u32, i: u32) -> u8 {
                return buf[i];
            }
            "#,
        );
        assert!(c.report.accepted(), "{:?}", c.report.diagnostics);
        let checks = checks_in(&c.program, "get");
        assert_eq!(checks.len(), 1);
        match &checks[0] {
            Check::PtrBounds {
                len: Some(Expr::Var(n)),
                ..
            } => assert_eq!(n, "n"),
            other => panic!("unexpected check {other:?}"),
        }
    }

    #[test]
    fn counted_loop_is_discharged_statically() {
        let c = convert(
            r#"
            fn fill(buf: u8 * count(n), n: u32) {
                let i: u32 = 0;
                while (i < n) {
                    buf[i] = 0;
                    i = i + 1;
                }
            }
            "#,
        );
        let checks = checks_in(&c.program, "fill");
        assert!(
            checks.is_empty(),
            "loop-guarded access should be static: {checks:?}"
        );
        assert!(c.report.static_discharged >= 1);
    }

    #[test]
    fn non_counted_loop_keeps_the_check() {
        // The index is modified in the middle of the body, so the loop guard
        // does not dominate the access.
        let c = convert(
            r#"
            fn weird(buf: u8 * count(n), n: u32) {
                let i: u32 = 0;
                while (i < n) {
                    i = i + 2;
                    buf[i] = 0;
                }
            }
            "#,
        );
        let checks = checks_in(&c.program, "weird");
        assert_eq!(checks.len(), 1);
    }

    #[test]
    fn sibling_field_annotation_lowers_to_field_access() {
        let c = convert(
            r#"
            struct sk_buff { len: u32; data: u8 * count(len); }
            fn get(skb: struct sk_buff * nonnull, i: u32) -> u8 {
                return skb->data[i];
            }
            "#,
        );
        let checks = checks_in(&c.program, "get");
        assert_eq!(checks.len(), 1, "{checks:?}");
        match &checks[0] {
            Check::PtrBounds { len: Some(l), .. } => {
                assert_eq!(ivy_cmir::pretty::expr_str(l), "skb->len");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn constant_accesses_discharged_or_rejected() {
        let ok = convert("global tbl: u32[8]; fn f() -> u32 { return tbl[3]; }");
        assert_eq!(checks_in(&ok.program, "f").len(), 0);
        assert!(ok.report.static_discharged >= 1);

        let bad = convert("global tbl: u32[8]; fn f() -> u32 { return tbl[9]; }");
        assert_eq!(bad.report.error_count(), 1);
    }

    #[test]
    fn trusted_function_is_left_alone() {
        let c = convert(
            r#"
            #[trusted]
            fn raw_poke(p: u32 *, i: u32) -> u32 { return p[i]; }
            "#,
        );
        assert!(checks_in(&c.program, "raw_poke").is_empty());
        assert!(c.report.trusted_sites >= 1);
    }

    #[test]
    fn trusted_pointer_is_left_alone() {
        let c = convert("fn f(p: u32 * trusted, i: u32) -> u32 { return p[i]; }");
        assert!(checks_in(&c.program, "f").is_empty());
        assert!(c.report.trusted_sites >= 1);
    }

    #[test]
    fn legacy_pointer_gets_auto_check() {
        let c = convert("fn f(p: u32 *, i: u32) -> u32 { return p[i]; }");
        let checks = checks_in(&c.program, "f");
        assert_eq!(checks.len(), 1);
        assert!(matches!(&checks[0], Check::PtrBounds { len: None, .. }));
    }

    #[test]
    fn nullable_arrow_gets_nonnull_check() {
        let c = convert(
            r#"
            struct inode { ino: u32; }
            fn a(p: struct inode * opt) -> u32 { return p->ino; }
            fn b(p: struct inode * nonnull) -> u32 { return p->ino; }
            "#,
        );
        assert!(checks_in(&c.program, "a")
            .iter()
            .any(|c| matches!(c, Check::NonNull(_))));
        assert!(checks_in(&c.program, "b").is_empty());
    }

    #[test]
    fn union_when_field_gets_tag_check() {
        let c = convert(
            r#"
            struct pkt { kind: u32; echo: u32 when(kind == 8); other: u32; }
            fn f(p: struct pkt * nonnull) -> u32 { return p->echo; }
            fn g(p: struct pkt * nonnull) -> u32 { return p->other; }
            "#,
        );
        assert!(checks_in(&c.program, "f")
            .iter()
            .any(|c| matches!(c, Check::UnionTag { .. })));
        assert!(checks_in(&c.program, "g")
            .iter()
            .all(|c| !matches!(c, Check::UnionTag { .. })));
    }

    #[test]
    fn int_to_pointer_cast_is_an_error() {
        let c = convert("fn f(x: u32) -> u32 * { return x as u32 *; }");
        assert_eq!(c.report.error_count(), 1);
        let ok = convert("#[trusted] fn f(x: u32) -> u32 * { return x as u32 *; }");
        assert!(ok.report.accepted());
    }

    #[test]
    fn report_counts_are_consistent() {
        let c = convert(
            r#"
            fn get(buf: u8 * count(n), n: u32, i: u32) -> u8 {
                let a: u8 = buf[i];
                let b: u8 = buf[i];
                return a + b;
            }
            "#,
        );
        // Two syntactic accesses: both inserted, one later optimised away.
        assert_eq!(c.report.runtime_checks["bounds"], 2);
        assert_eq!(c.report.checks_optimized_away, 1);
        let remaining = checks_in(&c.program, "get").len();
        assert_eq!(remaining, 1);
    }
}
