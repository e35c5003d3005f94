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
//! Annotations are untrusted: the inserted checks evaluate the annotation's
//! bound expression at run time, so a wrong `count(n)` manifests as a check
//! failure rather than silent memory corruption.

use crate::annotate;
use crate::report::{ConversionReport, DeputyDiagnostic, Severity};
use ivy_cmir::ast::{BinOp, Block, Check, Expr, Function, Program, Stmt};
use ivy_cmir::typecheck::TypeCtx;
use ivy_cmir::types::{BoundExpr, Bounds, PtrAnnot, Type};
use ivy_cmir::visit;
use ivy_cmir::Span;

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
    /// analysis context) and then drives [`convert_function`] per
    /// function, which is what makes Deputy checking per-function and
    /// incrementally cacheable.
    pub fn prepare(&self, program: &Program) -> (Program, ConversionReport) {
        let mut report = ConversionReport::default();
        annotate::validate_annotations(program, &mut report);
        let env = annotate::default_env(program, &mut report);
        (env, report)
    }

    /// Converts (deputizes) a whole program: every defined function is
    /// instrumented against the prepared environment and put in place of
    /// its signature, the per-function reports are merged into the
    /// preparation report, and the redundant-check optimiser runs last.
    pub fn convert(&self, program: &Program) -> Conversion {
        let (env, mut report) = self.prepare(program);
        let mut converted = env.clone();
        for func in program.functions.iter().filter(|f| f.body.is_some()) {
            let (instrumented, func_report) = convert_function(&env, func);
            report.merge(&func_report);
            converted.add_function(instrumented);
        }
        report.checks_optimized_away = crate::optimize::eliminate_redundant_checks(&mut converted);
        Conversion {
            program: converted,
            report,
        }
    }
}

/// Defaults and instruments one function of a program against its
/// [prepared](Deputy::prepare) environment, returning the instrumented
/// function and a report containing only this function's contribution
/// (check counts, static discharges, diagnostics). Merging these
/// per-function reports into the preparation report reproduces
/// [`Deputy::convert`]'s report up to `checks_optimized_away`, which only
/// the whole-program optimiser sets.
pub fn convert_function(env: &Program, func: &Function) -> (Function, ConversionReport) {
    let mut report = ConversionReport::default();
    let instrumented = instrument_function(env, annotate::with_defaults(func), &mut report);
    (instrumented, report)
}

/// A dominating comparison fact `lhs < rhs` collected from enclosing loop and
/// branch conditions, used to discharge bounds checks statically.
#[derive(Debug, Clone, PartialEq)]
struct LessFact {
    lhs: Expr,
    rhs: Expr,
}

struct Instrumenter<'p> {
    program: &'p Program,
    func: &'p Function,
    report: &'p mut ConversionReport,
    facts: Vec<LessFact>,
    /// Span of the statement currently being rewritten; diagnostics raised
    /// while checking its expressions attach here (line-accurate SARIF).
    current_span: Span,
}

fn instrument_function(env: &Program, func: Function, report: &mut ConversionReport) -> Function {
    if func.attrs.trusted {
        // Whole function trusted: count its access sites but do not touch it.
        let mut sites = 0;
        visit::walk_fn_stmts(&func, &mut |s| {
            visit::walk_stmt_exprs(s, &mut |e| {
                if matches!(e, Expr::Index(..) | Expr::Deref(_) | Expr::Arrow(..)) {
                    sites += 1;
                }
            });
        });
        report.trusted_sites += sites;
        return func;
    }
    let body = func
        .body
        .as_ref()
        .expect("instrument_function requires a body");
    let mut ctx = TypeCtx::for_function(env, &func);
    let mut inst = Instrumenter {
        program: env,
        func: &func,
        report,
        facts: Vec::new(),
        current_span: func.span,
    };
    let new_body = inst.rewrite_block(body, &mut ctx);
    Function {
        body: Some(new_body),
        ..func
    }
}

impl<'p> Instrumenter<'p> {
    fn rewrite_block(&mut self, block: &Block, ctx: &mut TypeCtx<'p>) -> Block {
        let mark = ctx.scope_mark();
        let mut out = Vec::with_capacity(block.stmts.len());
        for stmt in &block.stmts {
            self.rewrite_stmt(stmt, ctx, &mut out);
        }
        ctx.scope_reset(mark);
        Block::new(out)
    }

    fn rewrite_stmt(&mut self, stmt: &Stmt, ctx: &mut TypeCtx<'p>, out: &mut Vec<Stmt>) {
        if stmt.span().is_real() {
            self.current_span = stmt.span();
        }
        match stmt {
            Stmt::Expr(e, span) => {
                self.emit_checks_for_expr(e, ctx, out);
                out.push(Stmt::Expr(e.clone(), *span));
            }
            Stmt::Assign(lhs, rhs, span) => {
                self.emit_checks_for_expr(rhs, ctx, out);
                self.emit_checks_for_expr(lhs, ctx, out);
                out.push(Stmt::Assign(lhs.clone(), rhs.clone(), *span));
            }
            Stmt::Local(decl, init) => {
                if let Some(e) = init {
                    self.emit_checks_for_expr(e, ctx, out);
                }
                ctx.bind(&decl.name, decl.ty.clone());
                out.push(stmt.clone());
            }
            Stmt::Return(Some(e), span) => {
                self.emit_checks_for_expr(e, ctx, out);
                out.push(Stmt::Return(Some(e.clone()), *span));
            }
            Stmt::Return(None, _) | Stmt::Break(_) | Stmt::Continue(_) | Stmt::Check(..) => {
                out.push(stmt.clone());
            }
            Stmt::If(cond, then_b, else_b, span) => {
                self.emit_checks_for_expr(cond, ctx, out);
                let fact = less_fact_of(cond);
                if let Some(f) = fact.clone() {
                    self.facts.push(f);
                }
                let then_new = self.rewrite_block(then_b, ctx);
                if fact.is_some() {
                    self.facts.pop();
                }
                let else_new = else_b.as_ref().map(|b| self.rewrite_block(b, ctx));
                out.push(Stmt::If(cond.clone(), then_new, else_new, *span));
            }
            Stmt::While(cond, body, span) => {
                self.emit_checks_for_expr(cond, ctx, out);
                // The loop condition dominates the body only if the variables
                // it mentions are not reassigned before the access; accept the
                // canonical counted-loop shape where the index advances as the
                // final statement of the body.
                let fact = less_fact_of(cond).filter(|f| counted_loop_shape(f, body));
                if let Some(f) = fact.clone() {
                    self.facts.push(f);
                }
                let body_new = self.rewrite_block(body, ctx);
                if fact.is_some() {
                    self.facts.pop();
                }
                out.push(Stmt::While(cond.clone(), body_new, *span));
            }
            Stmt::Block(b) => {
                let inner = self.rewrite_block(b, ctx);
                out.push(Stmt::Block(inner));
            }
            Stmt::DelayedFreeScope(b, span) => {
                let inner = self.rewrite_block(b, ctx);
                out.push(Stmt::DelayedFreeScope(inner, *span));
            }
        }
    }

    /// Emits the checks required by every memory access inside `e`.
    fn emit_checks_for_expr(&mut self, e: &Expr, ctx: &TypeCtx<'p>, out: &mut Vec<Stmt>) {
        visit::walk_expr(e, &mut |sub| {
            if let Some(stmt) = self.check_for_access(sub, ctx) {
                out.push(stmt);
            }
        });
    }

    /// Produces the check (if any) required by a single access expression.
    fn check_for_access(&mut self, e: &Expr, ctx: &TypeCtx<'p>) -> Option<Stmt> {
        match e {
            Expr::Index(base, idx) => self.check_index(base, idx, ctx),
            Expr::Deref(base) => self.check_index(base, &Expr::Int(0), ctx),
            Expr::Arrow(obj, field) => self.check_arrow(obj, field, ctx),
            Expr::Field(obj, field) => self.check_union_field(obj, field, ctx),
            Expr::Cast(to, inner) => {
                self.diagnose_cast(to, inner, ctx);
                None
            }
            _ => None,
        }
    }

    fn check_index(&mut self, base: &Expr, idx: &Expr, ctx: &TypeCtx<'p>) -> Option<Stmt> {
        let base_ty = ctx.type_of(base).ok()?;
        let resolved = self.program.resolve_type(&base_ty).clone();
        match resolved {
            Type::Array(_, n) => {
                // Fixed-size arrays: constant indices are checked at compile
                // time, variable indices get a run-time check against the
                // constant length.
                if let Expr::Int(i) = idx {
                    if *i >= 0 && (*i as u64) < n {
                        self.report.static_discharged += 1;
                        return None;
                    }
                    self.error(format!("index {i} is provably outside array of length {n}"));
                    return None;
                }
                if self.fact_discharges(idx, &Expr::Int(n as i64)) {
                    self.report.static_discharged += 1;
                    return None;
                }
                Some(self.emit(Check::PtrBounds {
                    ptr: Expr::addr_of(Expr::index(base.clone(), Expr::Int(0))),
                    index: idx.clone(),
                    len: Some(Expr::Int(n as i64)),
                }))
            }
            Type::Ptr(_, ann) => self.check_ptr_access(base, idx, &ann),
            _ => None,
        }
    }

    fn check_ptr_access(&mut self, base: &Expr, idx: &Expr, ann: &PtrAnnot) -> Option<Stmt> {
        if ann.trusted {
            self.report.trusted_sites += 1;
            return None;
        }
        if self.func.attrs.trusted {
            self.report.trusted_sites += 1;
            return None;
        }
        let mut checks: Option<Stmt> = None;
        match &ann.bounds {
            Bounds::Single => {
                if let Expr::Int(0) = idx {
                    self.report.static_discharged += 1;
                } else {
                    checks = Some(self.emit(Check::PtrBounds {
                        ptr: base.clone(),
                        index: idx.clone(),
                        len: Some(Expr::Int(1)),
                    }));
                }
            }
            Bounds::Count(ce) => {
                let len = lower_bound_expr(ce, base);
                if let (Expr::Int(i), Expr::Int(n)) = (idx, &len) {
                    if *i >= 0 && i < n {
                        self.report.static_discharged += 1;
                        return None;
                    }
                    self.error(format!("index {i} provably outside count({n})"));
                    return None;
                }
                if self.fact_discharges(idx, &len) {
                    self.report.static_discharged += 1;
                    return None;
                }
                checks = Some(self.emit(Check::PtrBounds {
                    ptr: base.clone(),
                    index: idx.clone(),
                    len: Some(len),
                }));
            }
            Bounds::Bound(..) | Bounds::Auto | Bounds::Unknown => {
                // No environment expression describes the extent: fall back to
                // the run-time object-extent lookup (`auto` semantics).
                checks = Some(self.emit(Check::PtrBounds {
                    ptr: base.clone(),
                    index: idx.clone(),
                    len: None,
                }));
            }
        }
        checks
    }

    fn check_arrow(&mut self, obj: &Expr, field: &str, ctx: &TypeCtx<'p>) -> Option<Stmt> {
        let obj_ty = ctx.type_of(obj).ok()?;
        let resolved = self.program.resolve_type(&obj_ty).clone();
        let ann = match &resolved {
            Type::Ptr(_, a) => a.clone(),
            _ => return None,
        };
        if ann.trusted || self.func.attrs.trusted {
            self.report.trusted_sites += 1;
            return None;
        }
        // Union-arm guard, if the field carries one.
        if let Some(stmt) = self.union_tag_check(&resolved, obj, field, true) {
            return Some(stmt);
        }
        if ann.nonnull || matches!(obj, Expr::AddrOf(_)) {
            self.report.static_discharged += 1;
            None
        } else {
            Some(self.emit(Check::NonNull(obj.clone())))
        }
    }

    fn check_union_field(&mut self, obj: &Expr, field: &str, ctx: &TypeCtx<'p>) -> Option<Stmt> {
        let obj_ty = ctx.type_of(obj).ok()?;
        let resolved = self.program.resolve_type(&obj_ty).clone();
        self.union_tag_check(&resolved, obj, field, false)
    }

    fn union_tag_check(
        &mut self,
        obj_ty: &Type,
        obj: &Expr,
        field: &str,
        through_ptr: bool,
    ) -> Option<Stmt> {
        let comp_name = match obj_ty {
            Type::Struct(n) | Type::Union(n) => n.clone(),
            Type::Ptr(inner, _) if through_ptr => match self.program.resolve_type(inner) {
                Type::Struct(n) | Type::Union(n) => n.clone(),
                _ => return None,
            },
            _ => return None,
        };
        let def = self.program.composite(&comp_name)?;
        let fld = def.field(field)?;
        let (tag, value) = fld.when.clone()?;
        if self.func.attrs.trusted {
            self.report.trusted_sites += 1;
            return None;
        }
        let obj_lval = if through_ptr {
            // The check needs the object lvalue; `*obj` re-exposes it.
            Expr::deref(obj.clone())
        } else {
            obj.clone()
        };
        Some(self.emit(Check::UnionTag {
            obj: obj_lval,
            field: field.to_string(),
            tag,
            value,
        }))
    }

    fn diagnose_cast(&mut self, to: &Type, inner: &Expr, ctx: &TypeCtx<'p>) {
        let to_res = self.program.resolve_type(to).clone();
        let from = match ctx.type_of(inner) {
            Ok(t) => self.program.resolve_type(&t).clone(),
            Err(_) => return,
        };
        if self.func.attrs.trusted {
            return;
        }
        match (&from, &to_res) {
            (Type::Int(_), Type::Ptr(_, ann)) if !ann.trusted && !matches!(inner, Expr::Int(0)) => {
                self.error("cast from integer to pointer requires a trusted annotation");
            }
            (Type::Ptr(from_inner, _), Type::Ptr(to_inner, to_ann)) => {
                let from_base = self.program.resolve_type(from_inner).clone();
                let to_base = self.program.resolve_type(to_inner).clone();
                let benign = matches!(from_base, Type::Void)
                    || matches!(to_base, Type::Void)
                    || matches!(to_base, Type::Int(k) if k.size() == 1)
                    || from_base.same_repr(&to_base)
                    || to_ann.trusted;
                if !benign {
                    self.note(format!(
                        "cast between distinct pointer base types `{from_base}` and `{to_base}` is checked dynamically via bounds"
                    ));
                }
            }
            _ => {}
        }
    }

    fn fact_discharges(&self, idx: &Expr, len: &Expr) -> bool {
        self.facts.iter().any(|f| &f.lhs == idx && &f.rhs == len)
    }

    fn emit(&mut self, check: Check) -> Stmt {
        self.report.count_check(check.kind(), &self.func.name);
        Stmt::Check(check, Span::synthetic())
    }

    fn error(&mut self, message: impl Into<String>) {
        self.report.diagnostics.push(DeputyDiagnostic {
            function: self.func.name.clone(),
            message: message.into(),
            severity: Severity::Error,
            span: Some(self.current_span).filter(|s| s.is_real()),
        });
    }

    fn note(&mut self, message: impl Into<String>) {
        self.report.diagnostics.push(DeputyDiagnostic {
            function: self.func.name.clone(),
            message: message.into(),
            severity: Severity::Note,
            span: Some(self.current_span).filter(|s| s.is_real()),
        });
    }
}

/// Extracts an `lhs < rhs` (or `rhs > lhs`) fact from a condition.
fn less_fact_of(cond: &Expr) -> Option<LessFact> {
    match cond {
        Expr::Binary(BinOp::Lt, a, b) => Some(LessFact {
            lhs: (**a).clone(),
            rhs: (**b).clone(),
        }),
        Expr::Binary(BinOp::Gt, a, b) => Some(LessFact {
            lhs: (**b).clone(),
            rhs: (**a).clone(),
        }),
        _ => None,
    }
}

/// True if the loop body has the canonical counted-loop shape with respect to
/// the fact's variables: the index variable is only assigned by the final
/// statement of the body, and the bound variable is never assigned.
fn counted_loop_shape(fact: &LessFact, body: &Block) -> bool {
    let Expr::Var(index_var) = &fact.lhs else {
        return false;
    };
    let bound_vars = fact.rhs.vars_read();
    let n = body.stmts.len();
    for (i, stmt) in body.stmts.iter().enumerate() {
        let mut bad = false;
        visit::walk_block_stmts(&Block::new(vec![stmt.clone()]), &mut |s| {
            if let Stmt::Assign(Expr::Var(v), _, _) = s {
                if bound_vars.contains(v) {
                    bad = true;
                }
                if v == index_var && i + 1 != n {
                    bad = true;
                }
            }
            if let Stmt::Local(d, _) = s {
                if d.name == *index_var || bound_vars.contains(&d.name) {
                    bad = true;
                }
            }
        });
        if bad {
            return false;
        }
    }
    true
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
        let mut out = Vec::new();
        visit::walk_fn_stmts(program.function(func).unwrap(), &mut |s| {
            if let Stmt::Check(c, _) = s {
                out.push(c.clone());
            }
        });
        out
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
