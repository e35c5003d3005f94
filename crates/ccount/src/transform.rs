//! Program transformations used when porting a kernel to CCount.
//!
//! Two kinds of source-level change made the paper's kernel pass its free
//! checks: "nulling out some extra pointers, usually around the time the
//! corresponding object is freed (27 instances so far) and adding delayed
//! free scopes (26 so far)". [`FixPlan`] captures such a set of changes and
//! applies them mechanically, and [`insert_free_checks`] makes the implicit
//! free-time check visible as an explicit `__check_rc_free` statement.

use crate::analyze::FREE_FUNCTIONS;
use ivy_cmir::ast::{Block, Check, Expr, Program, Stmt};
use ivy_cmir::parser::parse_expr;
use ivy_cmir::visit;
use ivy_cmir::Span;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One "null out this pointer before the frees in this function" fix.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NullFix {
    /// Function to patch.
    pub function: String,
    /// The lvalue (KC expression text) to null immediately before each free
    /// call in that function, e.g. `"dev->rx_buf"` or `"console_slot"`.
    pub lvalue: String,
}

/// A set of source-level changes that make a kernel's frees verifiable.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FixPlan {
    /// Pointers to null out before frees (the paper's 27 instances).
    pub null_fixes: Vec<NullFix>,
    /// Functions whose whole body should run inside a delayed-free scope
    /// (the paper's 26 instances), for complex or cyclic structures.
    pub delayed_free_functions: Vec<String>,
}

impl FixPlan {
    /// Total number of individual fixes in the plan.
    pub fn len(&self) -> usize {
        self.null_fixes.len() + self.delayed_free_functions.len()
    }

    /// True if the plan contains no fixes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Applies the plan to a program, returning the patched program.
    ///
    /// Unknown function names are ignored (the plan may be written against a
    /// larger kernel configuration than the one being built).
    pub fn apply(&self, program: &Program) -> Program {
        let mut out = program.clone();
        for fix in &self.null_fixes {
            if let Ok(lvalue) = parse_expr(&fix.lvalue) {
                apply_null_fix(&mut out, &fix.function, &lvalue);
            }
        }
        for fname in &self.delayed_free_functions {
            wrap_in_delayed_free(&mut out, fname);
        }
        out
    }
}

/// Inserts `lvalue = null;` immediately before every free call in `function`.
pub fn apply_null_fix(program: &mut Program, function: &str, lvalue: &Expr) {
    let Some(func) = program.function(function).cloned() else {
        return;
    };
    let rewritten = visit::map_fn_body(&func, &mut |s| match &s {
        Stmt::Expr(e, _) if is_free_call(e) => {
            vec![Stmt::assign(lvalue.clone(), Expr::Null), s]
        }
        _ => vec![s],
    });
    program.add_function(rewritten);
}

/// Wraps the entire body of `function` in a delayed-free scope.
pub fn wrap_in_delayed_free(program: &mut Program, function: &str) {
    let Some(func) = program.function_mut(function) else {
        return;
    };
    let Some(body) = func.body.take() else { return };
    // Avoid double wrapping if the body is already a single delayed scope.
    if body.stmts.len() == 1 && matches!(body.stmts[0], Stmt::DelayedFreeScope(..)) {
        func.body = Some(body);
        return;
    }
    func.body = Some(Block::new(vec![Stmt::DelayedFreeScope(
        body,
        Span::synthetic(),
    )]));
}

/// Inserts an explicit `__check_rc_free(p)` before every `kfree(p)`-style
/// call, making the CCount free check auditable in the program text. Returns
/// the number of checks inserted.
pub fn insert_free_checks(program: &mut Program) -> u64 {
    let mut inserted = 0;
    for index in 0..program.functions.len() {
        let func = &program.functions[index];
        if func.body.is_none() {
            continue;
        }
        let rewritten = visit::map_fn_body(func, &mut |s| match &s {
            Stmt::Expr(e, span) => {
                if let Some(arg) = free_argument(e) {
                    inserted += 1;
                    vec![Stmt::Check(Check::RcFreeOk(arg), *span), s]
                } else {
                    vec![s]
                }
            }
            _ => vec![s],
        });
        program.functions.set(index, Arc::new(rewritten));
    }
    inserted
}

fn is_free_call(e: &Expr) -> bool {
    free_argument(e).is_some()
}

/// If `e` is a call to a free function, returns its (uncast) first argument.
fn free_argument(e: &Expr) -> Option<Expr> {
    if let Expr::Call(callee, args) = e {
        if let Expr::Var(name) = &**callee {
            if FREE_FUNCTIONS.contains(&name.as_str()) {
                let arg = args.first()?;
                let arg = match arg {
                    Expr::Cast(_, inner) => (**inner).clone(),
                    other => other.clone(),
                };
                return Some(arg);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivy_cmir::parser::parse_program;
    use ivy_cmir::pretty::pretty_program;

    const SRC: &str = r#"
        extern fn kfree(p: void *);
        struct dev { buf: u8 *; }
        global console: struct dev *;
        fn teardown(d: struct dev * nonnull) {
            kfree(d->buf as void *);
            kfree(d as void *);
        }
        fn release_console() {
            kfree(console as void *);
        }
    "#;

    #[test]
    fn null_fix_inserts_assignment_before_each_free() {
        let mut p = parse_program(SRC).unwrap();
        apply_null_fix(&mut p, "release_console", &parse_expr("console").unwrap());
        let text = pretty_program(&p);
        let idx_null = text
            .find("console = null;")
            .expect("null assignment inserted");
        let idx_free = text
            .find("kfree((console as void *));")
            .expect("free still present");
        assert!(idx_null < idx_free);
        // The other function is untouched.
        assert_eq!(text.matches("= null;").count(), 1);
    }

    #[test]
    fn delayed_free_wrap_is_idempotent() {
        let mut p = parse_program(SRC).unwrap();
        wrap_in_delayed_free(&mut p, "teardown");
        wrap_in_delayed_free(&mut p, "teardown");
        let f = p.function("teardown").unwrap();
        let body = f.body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 1);
        assert!(matches!(body.stmts[0], Stmt::DelayedFreeScope(..)));
    }

    #[test]
    fn free_checks_inserted_before_frees() {
        let mut p = parse_program(SRC).unwrap();
        let n = insert_free_checks(&mut p);
        assert_eq!(n, 3);
        let mut checks = 0;
        for f in p.defined_functions() {
            visit::walk_fn_stmts(f, &mut |s| {
                if matches!(s, Stmt::Check(Check::RcFreeOk(_), _)) {
                    checks += 1;
                }
            });
        }
        assert_eq!(checks, 3);
    }

    #[test]
    fn fix_plan_applies_both_kinds() {
        let p = parse_program(SRC).unwrap();
        let plan = FixPlan {
            null_fixes: vec![NullFix {
                function: "release_console".into(),
                lvalue: "console".into(),
            }],
            delayed_free_functions: vec!["teardown".into(), "not_a_function".into()],
        };
        assert_eq!(plan.len(), 3);
        let patched = plan.apply(&p);
        let text = pretty_program(&patched);
        assert!(text.contains("console = null;"));
        assert!(text.contains("delayed_free {"));
    }
}
