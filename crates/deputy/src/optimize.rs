//! Redundant-check elimination.
//!
//! The paper notes that programmers (and the compiler) can "gradually modify
//! the code to reduce the number of checks that must be deferred until run
//! time". This pass performs the compiler half of that: within straight-line
//! code, a check that is syntactically identical to one already executed — and
//! whose operands have not been reassigned in between — is removed.

use ivy_cmir::ast::{Block, Expr, Program, Stmt};
use ivy_cmir::pretty;
use ivy_cmir::visit;
use std::collections::BTreeSet;

/// Removes redundant checks from every function, rewriting each body in
/// place; returns how many were eliminated.
pub fn eliminate_redundant_checks(program: &mut Program) -> u64 {
    let mut removed = 0;
    for index in 0..program.functions.len() {
        let Some(body) = &program.functions[index].body else {
            continue;
        };
        let body = optimize_block(body, &mut removed);
        program.functions[index].body = Some(body);
    }
    removed
}

fn optimize_block(block: &Block, removed: &mut u64) -> Block {
    let mut seen: Vec<(String, BTreeSet<String>)> = Vec::new();
    let mut out = Vec::with_capacity(block.stmts.len());
    for stmt in &block.stmts {
        match stmt {
            Stmt::Check(check, span) => {
                let key = pretty::pretty_stmt(stmt, 0);
                if seen.iter().any(|(k, _)| *k == key) {
                    *removed += 1;
                    continue;
                }
                let mut vars = BTreeSet::new();
                visit::walk_check_exprs(check, &mut |e| {
                    for v in e.vars_read() {
                        vars.insert(v);
                    }
                });
                seen.push((key, vars));
                out.push(Stmt::Check(check.clone(), *span));
            }
            Stmt::Assign(lhs, rhs, span) => {
                invalidate(&mut seen, lhs);
                out.push(Stmt::Assign(lhs.clone(), rhs.clone(), *span));
            }
            Stmt::Local(decl, init) => {
                seen.retain(|(_, vars)| !vars.contains(&decl.name));
                out.push(Stmt::Local(decl.clone(), init.clone()));
            }
            Stmt::Expr(e, span) => {
                // Calls may mutate memory reachable through pointers, which
                // can change `auto` bounds lookups and union tags; drop all
                // facts conservatively when a call appears.
                if !e.calls().is_empty() {
                    seen.clear();
                }
                out.push(Stmt::Expr(e.clone(), *span));
            }
            Stmt::If(c, t, e, span) => {
                // Control flow: facts do not survive the join.
                let t2 = optimize_block(t, removed);
                let e2 = e.as_ref().map(|b| optimize_block(b, removed));
                out.push(Stmt::If(c.clone(), t2, e2, *span));
                seen.clear();
            }
            Stmt::While(c, b, span) => {
                let b2 = optimize_block(b, removed);
                out.push(Stmt::While(c.clone(), b2, *span));
                seen.clear();
            }
            Stmt::Block(b) => {
                out.push(Stmt::Block(optimize_block(b, removed)));
                seen.clear();
            }
            Stmt::DelayedFreeScope(b, span) => {
                out.push(Stmt::DelayedFreeScope(optimize_block(b, removed), *span));
                seen.clear();
            }
            other => out.push(other.clone()),
        }
    }
    Block::new(out)
}

fn invalidate(seen: &mut Vec<(String, BTreeSet<String>)>, lhs: &Expr) {
    match lhs {
        Expr::Var(v) => seen.retain(|(_, vars)| !vars.contains(v)),
        // Writes through pointers or to fields may change anything the checks
        // read from memory; keep only checks that read plain variables.
        _ => {
            let mut written = BTreeSet::new();
            for v in lhs.vars_read() {
                written.insert(v);
            }
            seen.retain(|(k, vars)| {
                !k.contains("->") && !k.contains('[') && vars.is_disjoint(&written)
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivy_cmir::parser::parse_program;

    fn count_checks(program: &Program, func: &str) -> usize {
        let mut n = 0;
        visit::walk_fn_stmts(program.function(func).unwrap(), &mut |s| {
            if matches!(s, Stmt::Check(..)) {
                n += 1;
            }
        });
        n
    }

    #[test]
    fn duplicate_checks_in_straight_line_are_removed() {
        let src = r#"
            fn f(p: u8 * count(n), n: u32, i: u32) -> u8 {
                __check_bounds(p, i, n);
                __check_bounds(p, i, n);
                let a: u8 = p[0];
                __check_bounds(p, i, n);
                return a;
            }
        "#;
        let mut p = parse_program(src).unwrap();
        let removed = eliminate_redundant_checks(&mut p);
        assert_eq!(removed, 2);
        assert_eq!(count_checks(&p, "f"), 1);
    }

    #[test]
    fn assignment_to_operand_keeps_later_check() {
        let src = r#"
            fn f(p: u8 * count(n), n: u32, i: u32) -> u8 {
                __check_bounds(p, i, n);
                i = i + 1;
                __check_bounds(p, i, n);
                return p[0];
            }
        "#;
        let mut p = parse_program(src).unwrap();
        let removed = eliminate_redundant_checks(&mut p);
        assert_eq!(removed, 0);
        assert_eq!(count_checks(&p, "f"), 2);
    }

    #[test]
    fn calls_invalidate_memory_dependent_checks() {
        let src = r#"
            struct sk_buff { len: u32; data: u8 * count(len); }
            extern fn consume(skb: struct sk_buff *);
            fn f(skb: struct sk_buff * nonnull, i: u32) -> u8 {
                __check_bounds(skb->data, i, skb->len);
                consume(skb);
                __check_bounds(skb->data, i, skb->len);
                return 0;
            }
        "#;
        let mut p = parse_program(src).unwrap();
        let removed = eliminate_redundant_checks(&mut p);
        assert_eq!(removed, 0);
    }

    #[test]
    fn checks_in_branches_not_merged_across_join() {
        let src = r#"
            fn f(p: u8 * count(n), n: u32, i: u32) -> u8 {
                if (i > 0) {
                    __check_bounds(p, i, n);
                    p[0] = 1;
                }
                __check_bounds(p, i, n);
                return p[0];
            }
        "#;
        let mut p = parse_program(src).unwrap();
        let removed = eliminate_redundant_checks(&mut p);
        assert_eq!(removed, 0);
        assert_eq!(count_checks(&p, "f"), 2);
    }
}
