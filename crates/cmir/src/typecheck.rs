//! C-level validation and expression typing for KC programs.
//!
//! This module implements the checks an ordinary C compiler would perform:
//! every name must be defined, struct fields must exist, calls must match
//! arity, assignments must target lvalues, and `break`/`continue` must appear
//! inside loops. It deliberately does **not** enforce memory safety — that is
//! Deputy's job (`ivy-deputy`), which builds on [`TypeCtx::type_of`] here.
//!
//! The checker is permissive about implicit integer conversions and
//! pointer/integer casts, mirroring C: those are reported in
//! [`Validation::warnings`] rather than as errors.

use crate::ast::{BinOp, Block, Expr, Function, Program, Stmt, UnOp};
use crate::error::{CmirError, Result};
use crate::span::Span;
use crate::types::{IntKind, PtrAnnot, Type};
use std::collections::HashMap;

/// Outcome of validating a program.
#[derive(Debug, Default, Clone)]
pub struct Validation {
    /// Hard errors (undefined names, bad calls, non-lvalue assignments, ...).
    pub errors: Vec<CmirError>,
    /// Soft C-compatibility warnings (suspicious casts, implicit narrowing).
    pub warnings: Vec<String>,
}

impl Validation {
    /// True when no hard errors were found.
    pub fn is_ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Validates an entire program.
pub fn validate_program(program: &Program) -> Validation {
    let mut v = Validation::default();
    // Duplicate definitions.
    let mut seen = HashMap::new();
    for f in &program.functions {
        if f.body.is_some() && seen.insert(f.name.clone(), ()).is_some() {
            v.errors.push(CmirError::resolve(
                format!("function `{}` defined more than once", f.name),
                f.span,
            ));
        }
    }
    for c in program.composites.iter() {
        let mut fields = HashMap::new();
        for fld in &c.fields {
            if fields.insert(fld.name.clone(), ()).is_some() {
                v.errors.push(CmirError::resolve(
                    format!("duplicate field `{}` in `{}`", fld.name, c.name),
                    fld.span,
                ));
            }
            check_type_defined(program, &fld.ty, fld.span, &mut v);
        }
    }
    for g in program.globals.iter() {
        check_type_defined(program, &g.decl.ty, g.decl.span, &mut v);
    }
    for f in &program.functions {
        validate_function(program, f, &mut v);
    }
    v
}

fn check_type_defined(program: &Program, ty: &Type, span: Span, v: &mut Validation) {
    match ty {
        Type::Struct(n) | Type::Union(n) if program.composite(n).is_none() => {
            v.errors.push(CmirError::resolve(
                format!("undefined composite `{n}`"),
                span,
            ));
        }
        Type::Named(n) if !program.typedefs.iter().any(|(name, _)| name == n) => {
            v.errors
                .push(CmirError::resolve(format!("undefined typedef `{n}`"), span));
        }
        Type::Ptr(inner, _) | Type::Array(inner, _) => check_type_defined(program, inner, span, v),
        Type::Func(ft) => {
            check_type_defined(program, &ft.ret, span, v);
            for p in &ft.params {
                check_type_defined(program, p, span, v);
            }
        }
        _ => {}
    }
}

fn validate_function(program: &Program, func: &Function, v: &mut Validation) {
    let Some(body) = &func.body else { return };
    let mut ctx = TypeCtx::new(program);
    for p in &func.params {
        check_type_defined(program, &p.ty, p.span, v);
        ctx.bind(&p.name, p.ty.clone());
    }
    validate_block(&mut ctx, func, body, 0, v);
}

fn validate_block(
    ctx: &mut TypeCtx<'_>,
    func: &Function,
    block: &Block,
    loop_depth: u32,
    v: &mut Validation,
) {
    let mark = ctx.scope_mark();
    for stmt in &block.stmts {
        validate_stmt(ctx, func, stmt, loop_depth, v);
    }
    ctx.scope_reset(mark);
}

fn validate_stmt(
    ctx: &mut TypeCtx<'_>,
    func: &Function,
    stmt: &Stmt,
    loop_depth: u32,
    v: &mut Validation,
) {
    match stmt {
        Stmt::Expr(e, span) => {
            if let Err(err) = ctx.type_of(e) {
                v.errors.push(locate(err, *span));
            }
        }
        Stmt::Assign(lhs, rhs, span) => {
            if !lhs.is_lvalue() {
                v.errors.push(CmirError::resolve(
                    "assignment target is not an lvalue",
                    *span,
                ));
            }
            match (ctx.type_of(lhs), ctx.type_of(rhs)) {
                (Ok(lt), Ok(rt)) => {
                    if lt.is_ptr() && rt.is_integral() && !matches!(rhs, Expr::Int(0) | Expr::Null)
                    {
                        v.warnings.push(format!(
                            "{}: assigning integer to pointer `{}`",
                            span,
                            crate::pretty::expr_str(lhs)
                        ));
                    }
                }
                (Err(e), _) | (_, Err(e)) => v.errors.push(locate(e, *span)),
            }
        }
        Stmt::Local(decl, init) => {
            check_type_defined(ctx.program, &decl.ty, decl.span, v);
            if let Some(e) = init {
                if let Err(err) = ctx.type_of(e) {
                    v.errors.push(locate(err, decl.span));
                }
            }
            ctx.bind(&decl.name, decl.ty.clone());
        }
        Stmt::If(c, then, els, span) => {
            if let Err(err) = ctx.type_of(c) {
                v.errors.push(locate(err, *span));
            }
            validate_block(ctx, func, then, loop_depth, v);
            if let Some(e) = els {
                validate_block(ctx, func, e, loop_depth, v);
            }
        }
        Stmt::While(c, body, span) => {
            if let Err(err) = ctx.type_of(c) {
                v.errors.push(locate(err, *span));
            }
            validate_block(ctx, func, body, loop_depth + 1, v);
        }
        Stmt::Return(e, span) => match (e, &func.ret) {
            (None, Type::Void) => {}
            (None, _) => v.errors.push(CmirError::ty(
                format!("`{}` must return a value", func.name),
                *span,
            )),
            (Some(e), ret) => match ctx.type_of(e) {
                Err(err) => v.errors.push(locate(err, *span)),
                Ok(t) => {
                    if *ret == Type::Void {
                        v.warnings.push(format!(
                            "{span}: returning a value from void function `{}`",
                            func.name
                        ));
                    } else if t.is_ptr() && ret.is_integral() {
                        v.warnings.push(format!(
                            "{span}: returning pointer from integer function `{}`",
                            func.name
                        ));
                    }
                }
            },
        },
        Stmt::Break(span) | Stmt::Continue(span) => {
            if loop_depth == 0 {
                v.errors.push(CmirError::resolve(
                    "`break`/`continue` outside of a loop",
                    *span,
                ));
            }
        }
        Stmt::Block(b) => validate_block(ctx, func, b, loop_depth, v),
        Stmt::Check(c, span) => {
            crate::visit::walk_check_exprs(c, &mut |e| {
                if let Err(err) = ctx.type_of(e) {
                    v.errors.push(locate(err, *span));
                }
            });
        }
        Stmt::DelayedFreeScope(b, _) => validate_block(ctx, func, b, loop_depth, v),
    }
}

fn locate(mut err: CmirError, span: Span) -> CmirError {
    if !err.span.is_real() {
        err.span = span;
    }
    err
}

/// Expression typing context: a program plus a stack of local bindings.
///
/// The analysis tools create one per function body and push/pop bindings as
/// they walk scopes.
pub struct TypeCtx<'p> {
    /// The program providing globals, functions, composites, and typedefs.
    pub program: &'p Program,
    locals: Vec<(String, Type)>,
}

impl<'p> TypeCtx<'p> {
    /// Creates an empty context over a program.
    pub fn new(program: &'p Program) -> Self {
        TypeCtx {
            program,
            locals: Vec::new(),
        }
    }

    /// Creates a context pre-populated with a function's parameters.
    pub fn for_function(program: &'p Program, func: &Function) -> Self {
        let mut ctx = TypeCtx::new(program);
        for p in &func.params {
            ctx.bind(&p.name, p.ty.clone());
        }
        ctx
    }

    /// Binds a local variable (shadowing any previous binding).
    pub fn bind(&mut self, name: &str, ty: Type) {
        self.locals.push((name.to_string(), ty));
    }

    /// Returns a marker for the current scope depth.
    pub fn scope_mark(&self) -> usize {
        self.locals.len()
    }

    /// Pops bindings back to a previous marker.
    pub fn scope_reset(&mut self, mark: usize) {
        self.locals.truncate(mark);
    }

    /// Looks up the type of a name: locals, then globals, then functions.
    pub fn lookup(&self, name: &str) -> Option<Type> {
        if let Some((_, t)) = self.locals.iter().rev().find(|(n, _)| n == name) {
            return Some(t.clone());
        }
        if let Some(g) = self.program.global(name) {
            return Some(g.decl.ty.clone());
        }
        if let Some(f) = self.program.function(name) {
            return Some(Type::Func(Box::new(f.func_type())));
        }
        None
    }

    /// Computes the static type of an expression.
    pub fn type_of(&self, expr: &Expr) -> Result<Type> {
        match expr {
            Expr::Int(_) => Ok(Type::Int(IntKind::I32)),
            Expr::Str(_) => Ok(Type::Ptr(
                Box::new(Type::u8()),
                PtrAnnot {
                    nullterm: true,
                    ..PtrAnnot::single()
                },
            )),
            Expr::Null => Ok(Type::Ptr(Box::new(Type::Void), PtrAnnot::unknown())),
            Expr::Var(name) => self.lookup(name).ok_or_else(|| {
                CmirError::resolve(format!("undefined name `{name}`"), Span::synthetic())
            }),
            Expr::Unary(op, e) => {
                let t = self.type_of(e)?;
                Ok(match op {
                    UnOp::Not => Type::Int(IntKind::I32),
                    UnOp::Neg | UnOp::BitNot => t,
                })
            }
            Expr::Binary(op, a, b) => {
                let ta = self.type_of(a)?;
                let tb = self.type_of(b)?;
                if op.is_comparison() || op.is_logical() {
                    return Ok(Type::Int(IntKind::I32));
                }
                let ta_r = self.program.resolve_type(&ta).clone();
                let tb_r = self.program.resolve_type(&tb).clone();
                // Pointer arithmetic keeps the pointer type; ptr - ptr is an
                // integer.
                match (ta_r.is_ptr(), tb_r.is_ptr()) {
                    (true, true) if *op == BinOp::Sub => Ok(Type::Int(IntKind::I32)),
                    (true, _) => Ok(ta),
                    (_, true) => Ok(tb),
                    _ => {
                        // Usual arithmetic conversions, approximated by the
                        // wider operand.
                        let sa = int_rank(&ta_r);
                        let sb = int_rank(&tb_r);
                        Ok(if sa >= sb { ta } else { tb })
                    }
                }
            }
            Expr::Deref(e) => {
                let t = self.type_of(e)?;
                match self.program.resolve_type(&t) {
                    Type::Ptr(inner, _) => Ok((**inner).clone()),
                    Type::Array(inner, _) => Ok((**inner).clone()),
                    other => Err(CmirError::ty(
                        format!("cannot dereference non-pointer type `{other}`"),
                        Span::synthetic(),
                    )),
                }
            }
            Expr::AddrOf(e) => {
                let t = self.type_of(e)?;
                Ok(Type::Ptr(Box::new(t), PtrAnnot::single()))
            }
            Expr::Index(base, _) => {
                let t = self.type_of(base)?;
                match self.program.resolve_type(&t) {
                    Type::Ptr(inner, _) | Type::Array(inner, _) => Ok((**inner).clone()),
                    other => Err(CmirError::ty(
                        format!("cannot index non-pointer type `{other}`"),
                        Span::synthetic(),
                    )),
                }
            }
            Expr::Field(obj, field) => {
                let t = self.type_of(obj)?;
                self.field_type(&t, field)
            }
            Expr::Arrow(obj, field) => {
                let t = self.type_of(obj)?;
                match self.program.resolve_type(&t) {
                    Type::Ptr(inner, _) => {
                        let inner = (**inner).clone();
                        self.field_type(&inner, field)
                    }
                    other => Err(CmirError::ty(
                        format!("`->` applied to non-pointer type `{other}`"),
                        Span::synthetic(),
                    )),
                }
            }
            Expr::Cast(t, _) => Ok(t.clone()),
            Expr::Call(callee, args) => {
                let ft = self.callee_type(callee)?;
                if ft.params.len() != args.len() {
                    return Err(CmirError::ty(
                        format!(
                            "call passes {} arguments but callee expects {}",
                            args.len(),
                            ft.params.len()
                        ),
                        Span::synthetic(),
                    ));
                }
                for a in args {
                    self.type_of(a)?;
                }
                Ok(ft.ret)
            }
            Expr::SizeOf(_) => Ok(Type::Int(IntKind::U32)),
        }
    }

    /// Computes the type of a call's callee as a function type, following
    /// function pointers.
    pub fn callee_type(&self, callee: &Expr) -> Result<crate::types::FuncType> {
        let t = self.type_of(callee)?;
        match self.program.resolve_type(&t) {
            Type::Func(ft) => Ok((**ft).clone()),
            Type::Ptr(inner, _) => match self.program.resolve_type(inner) {
                Type::Func(ft) => Ok((**ft).clone()),
                other => Err(CmirError::ty(
                    format!("called object has non-function type `{other}`"),
                    Span::synthetic(),
                )),
            },
            other => Err(CmirError::ty(
                format!("called object has non-function type `{other}`"),
                Span::synthetic(),
            )),
        }
    }

    fn field_type(&self, obj_ty: &Type, field: &str) -> Result<Type> {
        match self.program.resolve_type(obj_ty) {
            Type::Struct(name) | Type::Union(name) => {
                let def = self.program.composite(name).ok_or_else(|| {
                    CmirError::resolve(format!("undefined composite `{name}`"), Span::synthetic())
                })?;
                def.field(field).map(|f| f.ty.clone()).ok_or_else(|| {
                    CmirError::ty(
                        format!("`{name}` has no field `{field}`"),
                        Span::synthetic(),
                    )
                })
            }
            other => Err(CmirError::ty(
                format!("field access on non-composite type `{other}`"),
                Span::synthetic(),
            )),
        }
    }

    /// Returns the composite (struct/union) name behind an expression's type,
    /// if any — used by Deputy's union checking and CCount's layout lookups.
    pub fn composite_name_of(&self, expr: &Expr) -> Option<String> {
        let t = self.type_of(expr).ok()?;
        match self.program.resolve_type(&t) {
            Type::Struct(n) | Type::Union(n) => Some(n.clone()),
            Type::Ptr(inner, _) => match self.program.resolve_type(inner) {
                Type::Struct(n) | Type::Union(n) => Some(n.clone()),
                _ => None,
            },
            _ => None,
        }
    }
}

fn int_rank(t: &Type) -> u64 {
    match t {
        Type::Int(k) => k.size(),
        Type::Bool => 1,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    const KERNEL_SNIPPET: &str = r#"
        struct sk_buff {
            len: u32;
            data: u8 * count(len);
            next: struct sk_buff *;
        }
        struct net_ops {
            xmit: fnptr(struct sk_buff *) -> i32;
        }
        global packet_count: u64 = 0;
        #[allocator]
        fn kmalloc(size: u32, flags: u32) -> void * { return null; }
        fn skb_push(skb: struct sk_buff *, n: u32) -> u8 * {
            skb->len = skb->len + n;
            return skb->data;
        }
        fn dispatch(ops: struct net_ops *, skb: struct sk_buff *) -> i32 {
            packet_count = packet_count + 1;
            return ops->xmit(skb);
        }
    "#;

    #[test]
    fn valid_program_passes() {
        let p = parse_program(KERNEL_SNIPPET).unwrap();
        let v = validate_program(&p);
        assert!(v.is_ok(), "unexpected errors: {:?}", v.errors);
    }

    #[test]
    fn undefined_variable_is_error() {
        let p = parse_program("fn f() -> i32 { return missing + 1; }").unwrap();
        let v = validate_program(&p);
        assert!(!v.is_ok());
        assert!(v.errors[0].message.contains("missing"));
    }

    #[test]
    fn undefined_struct_and_field_errors() {
        let p = parse_program("fn f(x: struct nothere *) -> i32 { return 0; }").unwrap();
        let v = validate_program(&p);
        assert!(!v.is_ok());

        let p2 = parse_program("struct a { x: u32; } fn f(p: struct a *) -> u32 { return p->y; }")
            .unwrap();
        let v2 = validate_program(&p2);
        assert!(v2.errors.iter().any(|e| e.message.contains("no field `y`")));
    }

    #[test]
    fn call_arity_checked() {
        let p = parse_program(
            "fn g(a: u32, b: u32) -> u32 { return a + b; } fn f() -> u32 { return g(1); }",
        )
        .unwrap();
        let v = validate_program(&p);
        assert!(v.errors.iter().any(|e| e.message.contains("arguments")));
    }

    #[test]
    fn break_outside_loop_is_error() {
        let p = parse_program("fn f() { break; }").unwrap();
        let v = validate_program(&p);
        assert!(!v.is_ok());
    }

    #[test]
    fn expression_types() {
        let p = parse_program(KERNEL_SNIPPET).unwrap();
        let f = p.function("skb_push").unwrap();
        let ctx = TypeCtx::for_function(&p, f);
        let t = ctx
            .type_of(&crate::parser::parse_expr("skb->data").unwrap())
            .unwrap();
        assert!(t.is_ptr());
        let t2 = ctx
            .type_of(&crate::parser::parse_expr("skb->data[3]").unwrap())
            .unwrap();
        assert_eq!(t2, Type::u8());
        let t3 = ctx
            .type_of(&crate::parser::parse_expr("&skb->len").unwrap())
            .unwrap();
        assert_eq!(t3.pointee(), Some(&Type::u32()));
    }

    #[test]
    fn function_pointer_call_types() {
        let p = parse_program(KERNEL_SNIPPET).unwrap();
        let f = p.function("dispatch").unwrap();
        let ctx = TypeCtx::for_function(&p, f);
        let e = crate::parser::parse_expr("ops->xmit(skb)").unwrap();
        assert_eq!(ctx.type_of(&e).unwrap(), Type::i32());
    }

    #[test]
    fn pointer_arithmetic_types() {
        let p = parse_program(KERNEL_SNIPPET).unwrap();
        let f = p.function("skb_push").unwrap();
        let ctx = TypeCtx::for_function(&p, f);
        let e = crate::parser::parse_expr("skb->data + n").unwrap();
        assert!(ctx.type_of(&e).unwrap().is_ptr());
    }

    #[test]
    fn duplicate_definitions_rejected() {
        let p = parse_program("fn f() { } fn f() { }").unwrap();
        let v = validate_program(&p);
        assert!(v
            .errors
            .iter()
            .any(|e| e.message.contains("more than once")));
    }
}
