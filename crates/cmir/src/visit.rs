//! AST traversal helpers: read-only walkers, in-place mutators, and the
//! erasure transformation.
//!
//! The analysis tools rewrite programs by mapping statements; the helpers
//! here keep that boilerplate in one place so the tool passes stay focused on
//! their actual logic.

use crate::ast::{Block, Check, Expr, Function, Program, Stmt};
use std::sync::Arc;

/// Calls `f` on every expression in the statement, including nested ones,
/// in evaluation order.
pub fn walk_stmt_exprs<'a>(stmt: &'a Stmt, f: &mut dyn FnMut(&'a Expr)) {
    match stmt {
        Stmt::Expr(e, _) => walk_expr(e, f),
        Stmt::Assign(lhs, rhs, _) => {
            walk_expr(lhs, f);
            walk_expr(rhs, f);
        }
        Stmt::Local(_, Some(init)) => walk_expr(init, f),
        Stmt::Local(_, None) => {}
        Stmt::If(cond, then, els, _) => {
            walk_expr(cond, f);
            walk_block_exprs(then, f);
            if let Some(e) = els {
                walk_block_exprs(e, f);
            }
        }
        Stmt::While(cond, body, _) => {
            walk_expr(cond, f);
            walk_block_exprs(body, f);
        }
        Stmt::Return(Some(e), _) => walk_expr(e, f),
        Stmt::Return(None, _) | Stmt::Break(_) | Stmt::Continue(_) => {}
        Stmt::Block(b) => walk_block_exprs(b, f),
        Stmt::Check(c, _) => walk_check_exprs(c, f),
        Stmt::DelayedFreeScope(b, _) => walk_block_exprs(b, f),
    }
}

/// Calls `f` on every expression in a block.
pub fn walk_block_exprs<'a>(block: &'a Block, f: &mut dyn FnMut(&'a Expr)) {
    for s in &block.stmts {
        walk_stmt_exprs(s, f);
    }
}

/// Calls `f` on the expressions inside a check.
pub fn walk_check_exprs<'a>(check: &'a Check, f: &mut dyn FnMut(&'a Expr)) {
    match check {
        Check::NonNull(e) | Check::NullTerm(e) | Check::RcFreeOk(e) => walk_expr(e, f),
        Check::PtrBounds { ptr, index, len } => {
            walk_expr(ptr, f);
            walk_expr(index, f);
            if let Some(l) = len {
                walk_expr(l, f);
            }
        }
        Check::UnionTag { obj, .. } => walk_expr(obj, f),
        Check::AssertMayBlock { .. } => {}
    }
}

/// Calls `f` on `expr` and then on every sub-expression.
pub fn walk_expr<'a>(expr: &'a Expr, f: &mut dyn FnMut(&'a Expr)) {
    f(expr);
    match expr {
        Expr::Unary(_, e) | Expr::Deref(e) | Expr::AddrOf(e) | Expr::Cast(_, e) => walk_expr(e, f),
        Expr::Field(e, _) | Expr::Arrow(e, _) => walk_expr(e, f),
        Expr::Binary(_, a, b) | Expr::Index(a, b) => {
            walk_expr(a, f);
            walk_expr(b, f);
        }
        Expr::Call(callee, args) => {
            walk_expr(callee, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::Int(_) | Expr::Str(_) | Expr::Null | Expr::Var(_) | Expr::SizeOf(_) => {}
    }
}

/// Calls `f` on every statement in the function body (pre-order), including
/// statements nested inside `if`/`while`/blocks.
pub fn walk_fn_stmts<'a>(func: &'a Function, f: &mut dyn FnMut(&'a Stmt)) {
    if let Some(body) = &func.body {
        walk_block_stmts(body, f);
    }
}

/// Calls `f` on every statement in a block (pre-order).
pub fn walk_block_stmts<'a>(block: &'a Block, f: &mut dyn FnMut(&'a Stmt)) {
    for s in &block.stmts {
        walk_stmt(s, f);
    }
}

/// Calls `f` on a statement and on every statement nested in it
/// (pre-order).
pub fn walk_stmt<'a>(stmt: &'a Stmt, f: &mut dyn FnMut(&'a Stmt)) {
    f(stmt);
    match stmt {
        Stmt::If(_, then, els, _) => {
            walk_block_stmts(then, f);
            if let Some(e) = els {
                walk_block_stmts(e, f);
            }
        }
        Stmt::While(_, body, _) => walk_block_stmts(body, f),
        Stmt::Block(b) | Stmt::DelayedFreeScope(b, _) => walk_block_stmts(b, f),
        _ => {}
    }
}

/// Rewrites every statement of a block with `f`, bottom-up.
///
/// `f` receives each (already recursively rewritten) statement and returns
/// the list of statements that replace it — so a pass can delete a statement
/// (return `vec![]`), keep it (`vec![s]`), or expand it into an
/// instrumentation sequence.
pub fn map_block(block: &Block, f: &mut dyn FnMut(Stmt) -> Vec<Stmt>) -> Block {
    let mut out = Vec::with_capacity(block.stmts.len());
    for s in &block.stmts {
        let rewritten = match s {
            Stmt::If(c, then, els, sp) => Stmt::If(
                c.clone(),
                map_block(then, f),
                els.as_ref().map(|b| map_block(b, f)),
                *sp,
            ),
            Stmt::While(c, body, sp) => Stmt::While(c.clone(), map_block(body, f), *sp),
            Stmt::Block(b) => Stmt::Block(map_block(b, f)),
            Stmt::DelayedFreeScope(b, sp) => Stmt::DelayedFreeScope(map_block(b, f), *sp),
            other => other.clone(),
        };
        out.extend(f(rewritten));
    }
    Block::new(out)
}

/// Rewrites every statement of a function body with `f` (see [`map_block`]).
pub fn map_fn_body(func: &Function, f: &mut dyn FnMut(Stmt) -> Vec<Stmt>) -> Function {
    let mut out = func.clone();
    if let Some(body) = &func.body {
        out.body = Some(map_block(body, f));
    }
    out
}

/// Rewrites every expression of a statement with `f`, bottom-up.
pub fn map_stmt_exprs(stmt: &Stmt, f: &mut dyn FnMut(Expr) -> Expr) -> Stmt {
    match stmt {
        Stmt::Expr(e, sp) => Stmt::Expr(map_expr(e, f), *sp),
        Stmt::Assign(l, r, sp) => Stmt::Assign(map_expr(l, f), map_expr(r, f), *sp),
        Stmt::Local(d, init) => Stmt::Local(d.clone(), init.as_ref().map(|e| map_expr(e, f))),
        Stmt::If(c, then, els, sp) => Stmt::If(
            map_expr(c, f),
            map_block_exprs(then, f),
            els.as_ref().map(|b| map_block_exprs(b, f)),
            *sp,
        ),
        Stmt::While(c, b, sp) => Stmt::While(map_expr(c, f), map_block_exprs(b, f), *sp),
        Stmt::Return(e, sp) => Stmt::Return(e.as_ref().map(|e| map_expr(e, f)), *sp),
        Stmt::Break(sp) => Stmt::Break(*sp),
        Stmt::Continue(sp) => Stmt::Continue(*sp),
        Stmt::Block(b) => Stmt::Block(map_block_exprs(b, f)),
        Stmt::Check(c, sp) => Stmt::Check(map_check_exprs(c, f), *sp),
        Stmt::DelayedFreeScope(b, sp) => Stmt::DelayedFreeScope(map_block_exprs(b, f), *sp),
    }
}

/// Rewrites every expression in a block.
pub fn map_block_exprs(block: &Block, f: &mut dyn FnMut(Expr) -> Expr) -> Block {
    Block::new(block.stmts.iter().map(|s| map_stmt_exprs(s, f)).collect())
}

/// Rewrites the expressions inside a check.
pub fn map_check_exprs(check: &Check, f: &mut dyn FnMut(Expr) -> Expr) -> Check {
    match check {
        Check::NonNull(e) => Check::NonNull(map_expr(e, f)),
        Check::NullTerm(e) => Check::NullTerm(map_expr(e, f)),
        Check::RcFreeOk(e) => Check::RcFreeOk(map_expr(e, f)),
        Check::PtrBounds { ptr, index, len } => Check::PtrBounds {
            ptr: map_expr(ptr, f),
            index: map_expr(index, f),
            len: len.as_ref().map(|l| map_expr(l, f)),
        },
        Check::UnionTag {
            obj,
            field,
            tag,
            value,
        } => Check::UnionTag {
            obj: map_expr(obj, f),
            field: field.clone(),
            tag: tag.clone(),
            value: *value,
        },
        Check::AssertMayBlock { site } => Check::AssertMayBlock { site: site.clone() },
    }
}

/// Rewrites an expression bottom-up: children first, then `f` on the rebuilt
/// node.
pub fn map_expr(expr: &Expr, f: &mut dyn FnMut(Expr) -> Expr) -> Expr {
    let rebuilt = match expr {
        Expr::Unary(op, e) => Expr::Unary(*op, Box::new(map_expr(e, f))),
        Expr::Binary(op, a, b) => {
            Expr::Binary(*op, Box::new(map_expr(a, f)), Box::new(map_expr(b, f)))
        }
        Expr::Deref(e) => Expr::Deref(Box::new(map_expr(e, f))),
        Expr::AddrOf(e) => Expr::AddrOf(Box::new(map_expr(e, f))),
        Expr::Index(a, b) => Expr::Index(Box::new(map_expr(a, f)), Box::new(map_expr(b, f))),
        Expr::Field(e, n) => Expr::Field(Box::new(map_expr(e, f)), n.clone()),
        Expr::Arrow(e, n) => Expr::Arrow(Box::new(map_expr(e, f)), n.clone()),
        Expr::Cast(t, e) => Expr::Cast(t.clone(), Box::new(map_expr(e, f))),
        Expr::Call(callee, args) => Expr::Call(
            Box::new(map_expr(callee, f)),
            args.iter().map(|a| map_expr(a, f)).collect(),
        ),
        other => other.clone(),
    };
    f(rebuilt)
}

/// Produces a fully erased copy of a program: all pointer annotations become
/// [`crate::types::Bounds::Unknown`], all inserted [`Stmt::Check`]s are
/// removed, and delayed-free scopes become ordinary blocks.
pub fn erase_program(program: &Program) -> Program {
    let mut out = program.clone();
    for c in Arc::make_mut(&mut out.composites) {
        for field in &mut c.fields {
            field.ty = field.ty.erased();
            field.when = None;
        }
    }
    for (_, ty) in Arc::make_mut(&mut out.typedefs) {
        *ty = ty.erased();
    }
    for g in Arc::make_mut(&mut out.globals) {
        g.decl.ty = g.decl.ty.erased();
    }
    out.functions = out
        .functions
        .iter()
        .map(|func| {
            let mut f2 = map_fn_body(func, &mut |s| match s {
                Stmt::Check(..) => vec![],
                Stmt::DelayedFreeScope(b, _) => vec![Stmt::Block(b)],
                other => vec![other],
            });
            f2.ret = f2.ret.erased();
            for p in &mut f2.params {
                p.ty = p.ty.erased();
            }
            if let Some(body) = &f2.body {
                f2.body = Some(map_block_exprs(body, &mut |e| match e {
                    Expr::Cast(t, inner) => Expr::Cast(t.erased(), inner),
                    other => other,
                }));
                // Erase types on local declarations too.
                f2.body = Some(map_block(f2.body.as_ref().unwrap(), &mut |s| match s {
                    Stmt::Local(mut d, init) => {
                        d.ty = d.ty.erased();
                        vec![Stmt::Local(d, init)]
                    }
                    other => vec![other],
                }));
            }
            f2
        })
        .collect();
    out
}

/// Counts statements in a function body (a proxy for "lines of code" used by
/// the burden statistics when spans are synthetic).
pub fn count_stmts(func: &Function) -> usize {
    let mut n = 0;
    walk_fn_stmts(func, &mut |_| n += 1);
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expr, Function, Stmt, VarDecl};
    use crate::types::{BoundExpr, Type};

    fn checked_fn() -> Function {
        Function::new(
            "f",
            vec![
                VarDecl::new("p", Type::ptr_count(Type::u8(), BoundExpr::var("n"))),
                VarDecl::new("n", Type::u32()),
            ],
            Type::Void,
            vec![
                Stmt::Check(
                    Check::PtrBounds {
                        ptr: Expr::var("p"),
                        index: Expr::int(0),
                        len: None,
                    },
                    crate::span::Span::synthetic(),
                ),
                Stmt::assign(Expr::index(Expr::var("p"), Expr::int(0)), Expr::int(1)),
                Stmt::DelayedFreeScope(
                    Block::new(vec![Stmt::expr(Expr::call("kfree", vec![Expr::var("p")]))]),
                    crate::span::Span::synthetic(),
                ),
            ],
        )
    }

    #[test]
    fn erase_removes_checks_and_annotations() {
        let mut p = Program::new();
        p.add_function(checked_fn());
        let e = erase_program(&p);
        let f = e.function("f").unwrap();
        assert!(!f.is_annotated());
        let mut has_check = false;
        let mut has_dfs = false;
        walk_fn_stmts(f, &mut |s| match s {
            Stmt::Check(..) => has_check = true,
            Stmt::DelayedFreeScope(..) => has_dfs = true,
            _ => {}
        });
        assert!(!has_check);
        assert!(!has_dfs);
        // The free call inside the delayed scope must survive as a plain block.
        let mut has_free = false;
        walk_fn_stmts(f, &mut |s| {
            walk_stmt_exprs(s, &mut |e| {
                if let Expr::Call(callee, _) = e {
                    if matches!(&**callee, Expr::Var(n) if n == "kfree") {
                        has_free = true;
                    }
                }
            });
        });
        assert!(has_free);
    }

    #[test]
    fn map_block_can_delete_and_expand() {
        let b = Block::new(vec![
            Stmt::expr(Expr::call("a", vec![])),
            Stmt::expr(Expr::call("b", vec![])),
        ]);
        let out = map_block(&b, &mut |s| {
            if let Stmt::Expr(Expr::Call(callee, _), _) = &s {
                if matches!(&**callee, Expr::Var(n) if n == "a") {
                    return vec![];
                }
            }
            vec![s.clone(), s]
        });
        assert_eq!(out.stmts.len(), 2);
    }

    #[test]
    fn map_expr_bottom_up_rewrites() {
        let e = Expr::add(Expr::int(1), Expr::int(2));
        let out = map_expr(&e, &mut |e| match e {
            Expr::Int(v) => Expr::Int(v * 10),
            other => other,
        });
        assert_eq!(out, Expr::add(Expr::int(10), Expr::int(20)));
    }

    #[test]
    fn walk_counts_statements() {
        let f = checked_fn();
        assert_eq!(count_stmts(&f), 4);
    }
}
