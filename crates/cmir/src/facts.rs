//! Per-function facts: one walk over a function records everything the
//! whole-program analyses read from its body.
//!
//! BlockStop's report and Deputy's prepared environment are whole-program
//! results, but what they read from a body is local to it: the call sites
//! with the lock depth each runs at, and the defaults and annotation
//! scopes of the function's pointers. [`FnFacts::of`] collects those in
//! one walk, so a whole-program result is a fold over every function's
//! facts and reads no body; the analysis engine memoizes the facts per
//! function under the function's content and layout hashes, so an edit
//! walks only the bodies it changed (the STANSE design of one shared
//! per-function representation for every checker).
//!
//! Spans in the facts are stored with lines relative to the function's
//! start line ([`Span::shift_lines`]); a fold re-bases them on the
//! function it reads them for.

use crate::ast::{Block, Check, Expr, Function, Stmt, VarDecl};
use crate::pretty::expr_str;
use crate::span::Span;
use crate::visit;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Builtins that begin an IRQ-disabled or spinlocked region.
pub const ATOMIC_ENTER: &[&str] = &[
    "local_irq_disable",
    "local_irq_save",
    "spin_lock_irqsave",
    "spin_lock_irq",
    "spin_lock",
    "spin_lock_bh",
];

/// Builtins that end an IRQ-disabled or spinlocked region.
pub const ATOMIC_EXIT: &[&str] = &[
    "local_irq_enable",
    "local_irq_restore",
    "spin_unlock_irqrestore",
    "spin_unlock_irq",
    "spin_unlock",
    "spin_unlock_bh",
];

/// What one walk over a function records.
#[derive(Debug, Clone, PartialEq)]
pub struct FnFacts {
    /// Every call site, in BlockStop's traversal order.
    pub calls: Vec<CallFact>,
    /// The function's header without its body, with Deputy's default
    /// bounds on a defined function's parameters (`auto` for a pointer the
    /// body indexes or offsets, `single` otherwise); an extern's header as
    /// written. Its spans are the function's when the facts were computed.
    pub signature: Arc<Function>,
    /// Default bounds the defined function's parameters and locals get.
    pub inferred_defaults: u64,
    /// The parameters and locals the body indexes (by anything but a
    /// literal 0) or offsets: Deputy defaults their unannotated pointers
    /// to `auto` bounds, every other one to `single`.
    pub arithmetic: BTreeSet<String>,
    /// Annotated pointers in the parameters', return and locals' types.
    pub annotations: u64,
    /// Annotations that mention a name out of the function's scope: a
    /// parameter's that names no parameter, then a local's that names no
    /// parameter, earlier local or the local itself. A global of the name
    /// may still cover it.
    pub annotation_escapes: Vec<AnnotationEscape>,
}

/// One call site.
#[derive(Debug, Clone, PartialEq)]
pub struct CallFact {
    /// What is called.
    pub callee: Callee,
    /// Spinlocks and IRQ-disabled regions held at the call (a function
    /// annotated as disabling interrupts starts at depth 1).
    pub lock_depth: u32,
    /// The enclosing statement's span, lines relative to the function's
    /// start line.
    pub span: Span,
}

/// The callee of a call site.
#[derive(Debug, Clone, PartialEq)]
pub enum Callee {
    /// A bare name that names none of the function's parameters or
    /// locals: a direct call unless a global of that name shadows the
    /// function. Each argument is its integer literal, or `None`.
    Name {
        /// The called name.
        name: String,
        /// The arguments' integer literals.
        args: Vec<Option<i64>>,
    },
    /// A bare name that names a parameter or local: a call through it.
    Variable(String),
    /// Any other callee expression, printed as points-to keys it.
    Indirect(String),
}

impl Callee {
    /// The callee as written: the name, or the printed expression.
    pub fn text(&self) -> &str {
        match self {
            Callee::Name { name, .. } | Callee::Variable(name) => name,
            Callee::Indirect(text) => text,
        }
    }
}

/// A parameter or local whose annotation mentions an out-of-scope name.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotationEscape {
    /// True for a parameter, false for a local.
    pub parameter: bool,
    /// The parameter or local.
    pub name: String,
    /// The name its annotation mentions.
    pub var: String,
    /// The declaration's span, lines relative to the function's start
    /// line; `None` when the declaration has no source position.
    pub span: Option<Span>,
}

impl FnFacts {
    /// Walks `func` once.
    pub fn of(func: &Function) -> FnFacts {
        let mut walk = Walk {
            facts: FnFacts {
                calls: Vec::new(),
                signature: Arc::new(signature(func)),
                inferred_defaults: 0,
                arithmetic: BTreeSet::new(),
                annotations: func.ret.annotation_count(),
                annotation_escapes: Vec::new(),
            },
            base: func.span.start.line.wrapping_neg(),
            vars: func.params.iter().map(|p| p.name.as_str()).collect(),
            arithmetic: BTreeSet::new(),
        };
        for p in &func.params {
            walk.declared(true, p);
        }
        let Some(body) = &func.body else {
            return walk.facts;
        };
        walk.block(body, &mut u32::from(func.attrs.disables_irq));

        // Only now is every local known: a bare callee naming one is a
        // call through it.
        let Walk {
            mut facts,
            vars,
            arithmetic,
            ..
        } = walk;
        for call in &mut facts.calls {
            if let Callee::Name { name, .. } = &mut call.callee {
                if vars.contains(name.as_str()) {
                    call.callee = Callee::Variable(std::mem::take(name));
                }
            }
        }
        let sig = Arc::get_mut(&mut facts.signature).expect("not yet shared");
        for p in &mut sig.params {
            facts.inferred_defaults +=
                p.ty.apply_default_bounds(arithmetic.contains(p.name.as_str()));
        }
        facts.arithmetic = arithmetic
            .into_iter()
            .filter(|name| vars.contains(name))
            .map(String::from)
            .collect();
        facts
    }

    /// The facts of every function of `program`, in program order.
    pub fn all(program: &crate::ast::Program) -> Vec<Arc<FnFacts>> {
        program
            .functions
            .iter()
            .map(|f| Arc::new(FnFacts::of(f)))
            .collect()
    }

    /// [`FnFacts::signature`] with the spans of `func`, the function the
    /// facts were computed for or one with the same content and layout:
    /// shared when `func` has not moved, re-spanned otherwise.
    pub fn signature_at(&self, func: &Function) -> Arc<Function> {
        if self.signature.span == func.span {
            return Arc::clone(&self.signature);
        }
        let mut sig = Function::clone(&self.signature);
        sig.span = func.span;
        for (p, at) in sig.params.iter_mut().zip(&func.params) {
            p.span = at.span;
        }
        Arc::new(sig)
    }
}

/// A function's header without its body.
pub fn signature(func: &Function) -> Function {
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

/// The variable `e` indexes (by anything but a literal 0) or offsets.
fn arithmetic_base(e: &Expr) -> Option<&str> {
    match e {
        Expr::Index(base, idx) if !matches!(**idx, Expr::Int(0)) => match &**base {
            Expr::Var(name) => Some(name),
            _ => None,
        },
        Expr::Binary(crate::BinOp::Add | crate::BinOp::Sub, a, _) => match &**a {
            Expr::Var(name) => Some(name),
            _ => None,
        },
        _ => None,
    }
}

/// The one walk over a body: statements in order, lock depth through
/// branches and loops.
struct Walk<'a> {
    facts: FnFacts,
    /// The negated start line of the function.
    base: u32,
    /// The parameters' and locals' names (in scope so far while walking).
    vars: BTreeSet<&'a str>,
    /// Variables indexed or offset.
    arithmetic: BTreeSet<&'a str>,
}

impl<'a> Walk<'a> {
    /// Counts a parameter's or local's annotations and records the names
    /// they mention that are not in scope (nor, for a local, itself).
    fn declared(&mut self, parameter: bool, decl: &VarDecl) {
        self.facts.annotations += decl.ty.annotation_count();
        for var in decl.ty.annotation_vars() {
            if !self.vars.contains(var.as_str()) && (parameter || decl.name != var) {
                self.facts.annotation_escapes.push(AnnotationEscape {
                    parameter,
                    name: decl.name.clone(),
                    var,
                    span: decl
                        .span
                        .is_real()
                        .then(|| decl.span.shift_lines(self.base)),
                });
            }
        }
    }

    fn block(&mut self, block: &'a Block, depth: &mut u32) {
        for stmt in &block.stmts {
            // The statement's span localizes every call inside it — KC
            // expressions carry no spans of their own, so the enclosing
            // statement is the finest line-accurate anchor available.
            let span = stmt.span().shift_lines(self.base);
            if let Stmt::Local(decl, _) = stmt {
                self.facts.inferred_defaults += decl.ty.clone().apply_default_bounds(false);
                self.declared(false, decl);
                self.vars.insert(&decl.name);
            }
            match stmt {
                Stmt::If(c, t, e, _) => {
                    self.expr(c, *depth, span);
                    let mut d_then = *depth;
                    self.block(t, &mut d_then);
                    let mut d_else = *depth;
                    if let Some(e) = e {
                        self.block(e, &mut d_else);
                    }
                    // Sound join: after the branch, the code may run holding
                    // whatever either path acquired.
                    *depth = d_then.max(d_else);
                }
                Stmt::While(c, b, _) => {
                    self.expr(c, *depth, span);
                    let mut d_body = *depth;
                    self.block(b, &mut d_body);
                    // The loop may run zero times or leave a lock held.
                    *depth = (*depth).max(d_body);
                }
                Stmt::Block(b) | Stmt::DelayedFreeScope(b, _) => self.block(b, depth),
                Stmt::Check(Check::AssertMayBlock { .. }, _) => {}
                other => {
                    // Track atomic region transitions from the calls in this
                    // statement, in order.
                    let mut exprs: Vec<&Expr> = Vec::new();
                    visit::walk_stmt_exprs(other, &mut |e| exprs.push(e));
                    for e in exprs {
                        self.arithmetic.extend(arithmetic_base(e));
                        if let Expr::Call(callee, _) = e {
                            if let Expr::Var(name) = &**callee {
                                if ATOMIC_ENTER.contains(&name.as_str()) {
                                    self.calls_in(e, *depth, span);
                                    *depth += 1;
                                    continue;
                                }
                                if ATOMIC_EXIT.contains(&name.as_str()) {
                                    *depth = depth.saturating_sub(1);
                                    self.calls_in(e, *depth, span);
                                    continue;
                                }
                            }
                            self.call(e, *depth, span);
                        }
                    }
                }
            }
        }
    }

    /// A branch or loop condition: its calls and its arithmetic.
    fn expr(&mut self, e: &'a Expr, depth: u32, span: Span) {
        visit::walk_expr(e, &mut |sub| {
            self.arithmetic.extend(arithmetic_base(sub));
            self.call(sub, depth, span);
        });
    }

    /// Every call inside `e`.
    fn calls_in(&mut self, e: &Expr, depth: u32, span: Span) {
        visit::walk_expr(e, &mut |sub| self.call(sub, depth, span));
    }

    fn call(&mut self, call: &Expr, lock_depth: u32, span: Span) {
        let Expr::Call(callee, args) = call else {
            return;
        };
        let callee = match &**callee {
            Expr::Var(name) => Callee::Name {
                name: name.clone(),
                args: args
                    .iter()
                    .map(|a| match a {
                        Expr::Int(v) => Some(*v),
                        _ => None,
                    })
                    .collect(),
            },
            other => Callee::Indirect(expr_str(other)),
        };
        self.facts.calls.push(CallFact {
            callee,
            lock_depth,
            span,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    const SRC: &str = r#"
        global hook: fnptr() -> void;
        fn f(cb: fnptr() -> void, p: u32 *, n: u32) {
            spin_lock(&n);
            if (n) { spin_lock(&n); }
            kmalloc(n, 0x10);
            cb();
            hook();
            ops->read(p[n]);
            spin_unlock(&n);
            let early: u8 * count(later) = null;
        }
    "#;

    #[test]
    fn one_walk_records_callees_lock_depths_and_relative_spans() {
        let p = parse_program(SRC).unwrap();
        let f = p.function("f").unwrap();
        let facts = FnFacts::of(f);
        let calls: Vec<(&str, u32)> = facts
            .calls
            .iter()
            .map(|c| (c.callee.text(), c.lock_depth))
            .collect();
        assert_eq!(
            calls,
            [
                ("spin_lock", 0),
                ("spin_lock", 1),
                ("kmalloc", 2),
                ("cb", 2),
                ("hook", 2),
                ("ops->read", 2),
                ("spin_unlock", 1),
            ]
        );
        assert_eq!(
            facts.calls[2].callee,
            Callee::Name {
                name: "kmalloc".into(),
                args: vec![None, Some(0x10)],
            }
        );
        assert!(matches!(facts.calls[3].callee, Callee::Variable(_)));
        assert!(
            matches!(facts.calls[4].callee, Callee::Name { .. }),
            "a global is the fold's to tell apart"
        );
        assert!(matches!(facts.calls[5].callee, Callee::Indirect(_)));
        // `kmalloc` sits three lines below the function's first line.
        assert_eq!(facts.calls[2].span.start.line, 3);
        assert_eq!(facts.annotation_escapes.len(), 1);
        assert_eq!(facts.annotation_escapes[0].var, "later");
        // `p` is indexed: `auto`; `cb` is not a data pointer.
        assert_eq!(facts.arithmetic, BTreeSet::from(["p".to_string()]));
        let sig = &facts.signature;
        assert!(sig.body.is_none());
        assert_eq!(
            sig.params[1].ty.ptr_annot().unwrap().bounds,
            crate::types::Bounds::Auto
        );
    }

    #[test]
    fn a_moved_function_gets_its_own_spans_back() {
        let p = parse_program(SRC).unwrap();
        let moved = parse_program(&format!("\n\n{SRC}")).unwrap();
        let (f, g) = (p.function("f").unwrap(), moved.function("f").unwrap());
        let facts = FnFacts::of(f);
        let moved_facts = FnFacts::of(g);
        assert_eq!(
            facts.calls, moved_facts.calls,
            "relative spans survive the move"
        );
        assert_eq!(facts.annotation_escapes, moved_facts.annotation_escapes);
        assert!(Arc::ptr_eq(&facts.signature_at(f), &facts.signature));
        assert_eq!(*facts.signature_at(g), *moved_facts.signature);
    }
}
