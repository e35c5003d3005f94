//! Pretty printer for KC programs.
//!
//! The output is valid KC surface syntax: `parse_program(pretty(p))`
//! reproduces the same program (up to source spans). The corpus generator
//! uses this to materialise the synthetic kernel as readable source files,
//! and the round-trip property tests use it to exercise the parser.

use crate::ast::{BinOp, Block, Check, Expr, Function, Program, Stmt, UnOp};
use crate::types::{Bounds, CompositeDef, PtrAnnot, Type};
use std::fmt::Write as _;

/// Pretty-prints a whole program.
pub fn pretty_program(p: &Program) -> String {
    let mut out = String::new();
    for (name, ty) in p.typedefs.iter() {
        let _ = writeln!(out, "typedef {name} = {};", type_str(ty));
    }
    if !p.typedefs.is_empty() {
        out.push('\n');
    }
    for c in p.composites.iter() {
        out.push_str(&pretty_composite(c));
        out.push('\n');
    }
    for g in p.globals.iter() {
        match &g.init {
            Some(e) => {
                let _ = writeln!(
                    out,
                    "global {}: {} = {};",
                    g.decl.name,
                    type_str(&g.decl.ty),
                    expr_str(e)
                );
            }
            None => {
                let _ = writeln!(out, "global {}: {};", g.decl.name, type_str(&g.decl.ty));
            }
        }
    }
    if !p.globals.is_empty() {
        out.push('\n');
    }
    for f in &p.functions {
        out.push_str(&pretty_function(f));
        out.push('\n');
    }
    out
}

/// Pretty-prints a struct or union definition.
pub fn pretty_composite(c: &CompositeDef) -> String {
    let mut out = String::new();
    let kw = if c.is_union { "union" } else { "struct" };
    let _ = writeln!(out, "{kw} {} {{", c.name);
    for f in &c.fields {
        let when = match &f.when {
            Some((tag, v)) => format!(" when({tag} == {v})"),
            None => String::new(),
        };
        let _ = writeln!(out, "    {}: {}{};", f.name, type_str(&f.ty), when);
    }
    out.push_str("}\n");
    out
}

/// Pretty-prints a function definition or declaration.
pub fn pretty_function(f: &Function) -> String {
    let mut out = String::new();
    let a = &f.attrs;
    if a.blocking {
        out.push_str("#[blocking]\n");
    }
    if let Some(flag) = &a.blocking_if_flag {
        let _ = writeln!(out, "#[blocking_if({flag})]");
    }
    if a.interrupt_handler {
        out.push_str("#[irq_handler]\n");
    }
    if a.trusted {
        out.push_str("#[trusted]\n");
    }
    if a.inline_asm {
        out.push_str("#[inline_asm]\n");
    }
    if a.allocator {
        out.push_str("#[allocator]\n");
    }
    if a.deallocator {
        out.push_str("#[deallocator]\n");
    }
    if a.disables_irq {
        out.push_str("#[disables_irq]\n");
    }
    for l in &a.acquires {
        let _ = writeln!(out, "#[acquires({l})]");
    }
    for l in &a.releases {
        let _ = writeln!(out, "#[releases({l})]");
    }
    if !a.error_codes.is_empty() {
        let codes: Vec<String> = a.error_codes.iter().map(|c| c.to_string()).collect();
        let _ = writeln!(out, "#[error_codes({})]", codes.join(", "));
    }
    if f.subsystem != "kernel" {
        let _ = writeln!(out, "#[subsystem(\"{}\")]", f.subsystem);
    }
    let params: Vec<String> = f
        .params
        .iter()
        .map(|p| format!("{}: {}", p.name, type_str(&p.ty)))
        .collect();
    let ret = if f.ret == Type::Void {
        String::new()
    } else {
        format!(" -> {}", type_str(&f.ret))
    };
    match &f.body {
        Some(body) => {
            let _ = writeln!(out, "fn {}({}){} {{", f.name, params.join(", "), ret);
            out.push_str(&pretty_block(body, 1));
            out.push_str("}\n");
        }
        None => {
            let _ = writeln!(out, "extern fn {}({}){};", f.name, params.join(", "), ret);
        }
    }
    out
}

fn indent(level: usize) -> String {
    "    ".repeat(level)
}

/// Pretty-prints the statements of a block at the given indentation level.
pub fn pretty_block(b: &Block, level: usize) -> String {
    let mut out = String::new();
    for s in &b.stmts {
        out.push_str(&pretty_stmt(s, level));
    }
    out
}

/// Pretty-prints one statement.
pub fn pretty_stmt(s: &Stmt, level: usize) -> String {
    let ind = indent(level);
    match s {
        Stmt::Expr(e, _) => format!("{ind}{};\n", expr_str(e)),
        Stmt::Assign(l, r, _) => format!("{ind}{} = {};\n", expr_str(l), expr_str(r)),
        Stmt::Local(d, Some(init)) => {
            format!(
                "{ind}let {}: {} = {};\n",
                d.name,
                type_str(&d.ty),
                expr_str(init)
            )
        }
        Stmt::Local(d, None) => format!("{ind}let {}: {};\n", d.name, type_str(&d.ty)),
        Stmt::If(c, then, els, _) => {
            let mut out = format!(
                "{ind}if ({}) {{\n{}",
                expr_str(c),
                pretty_block(then, level + 1)
            );
            match els {
                Some(e) => {
                    out.push_str(&format!(
                        "{ind}}} else {{\n{}{ind}}}\n",
                        pretty_block(e, level + 1)
                    ));
                }
                None => out.push_str(&format!("{ind}}}\n")),
            }
            out
        }
        Stmt::While(c, body, _) => format!(
            "{ind}while ({}) {{\n{}{ind}}}\n",
            expr_str(c),
            pretty_block(body, level + 1)
        ),
        Stmt::Return(Some(e), _) => format!("{ind}return {};\n", expr_str(e)),
        Stmt::Return(None, _) => format!("{ind}return;\n"),
        Stmt::Break(_) => format!("{ind}break;\n"),
        Stmt::Continue(_) => format!("{ind}continue;\n"),
        Stmt::Block(b) => format!("{ind}{{\n{}{ind}}}\n", pretty_block(b, level + 1)),
        Stmt::Check(c, _) => format!("{ind}{}\n", check_str(c)),
        Stmt::DelayedFreeScope(b, _) => format!(
            "{ind}delayed_free {{\n{}{ind}}}\n",
            pretty_block(b, level + 1)
        ),
    }
}

fn check_str(c: &Check) -> String {
    match c {
        Check::NonNull(e) => format!("__check_nonnull({});", expr_str(e)),
        Check::NullTerm(e) => format!("__check_nullterm({});", expr_str(e)),
        Check::RcFreeOk(e) => format!("__check_rc_free({});", expr_str(e)),
        Check::PtrBounds { ptr, index, len } => match len {
            Some(l) => format!(
                "__check_bounds({}, {}, {});",
                expr_str(ptr),
                expr_str(index),
                expr_str(l)
            ),
            None => format!("__check_bounds({}, {});", expr_str(ptr), expr_str(index)),
        },
        Check::UnionTag {
            obj,
            field,
            tag,
            value,
        } => {
            format!("__check_union({}, {field}, {tag}, {value});", expr_str(obj))
        }
        Check::AssertMayBlock { site } => format!("__assert_may_block(\"{site}\");"),
    }
}

/// Renders a type in KC surface syntax.
pub fn type_str(t: &Type) -> String {
    match t {
        Type::Void => "void".into(),
        Type::Bool => "bool".into(),
        Type::Int(k) => k.keyword().into(),
        Type::Ptr(inner, ann) => format!("{} *{}", type_str(inner), annot_str(ann)),
        Type::Array(inner, n) => format!("{}[{n}]", type_str(inner)),
        Type::Struct(n) => format!("struct {n}"),
        Type::Union(n) => format!("union {n}"),
        Type::Func(ft) => {
            let params: Vec<String> = ft.params.iter().map(type_str).collect();
            format!("fnptr({}) -> {}", params.join(", "), type_str(&ft.ret))
        }
        Type::Named(n) => n.clone(),
    }
}

fn annot_str(a: &PtrAnnot) -> String {
    let mut out = String::new();
    match &a.bounds {
        Bounds::Unknown => {}
        Bounds::Single => out.push_str(" single"),
        Bounds::Count(e) => {
            let _ = write!(out, " count({e})");
        }
        Bounds::Bound(lo, hi) => {
            let _ = write!(out, " bound({lo}, {hi})");
        }
        Bounds::Auto => out.push_str(" auto"),
    }
    if a.nullterm {
        out.push_str(" nullterm");
    }
    if a.nonnull {
        out.push_str(" nonnull");
    }
    if a.opt {
        out.push_str(" opt");
    }
    if a.trusted {
        out.push_str(" trusted");
    }
    if a.poly {
        out.push_str(" poly");
    }
    out
}

/// Renders an expression in KC surface syntax (fully parenthesised where
/// needed so that re-parsing yields the same tree).
pub fn expr_str(e: &Expr) -> String {
    expr_prec(e, 0)
}

fn bin_prec(op: BinOp) -> u8 {
    match op {
        BinOp::LOr => 1,
        BinOp::LAnd => 2,
        BinOp::Or => 3,
        BinOp::Xor => 4,
        BinOp::And => 5,
        BinOp::Eq | BinOp::Ne => 6,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 7,
        BinOp::Shl | BinOp::Shr => 8,
        BinOp::Add | BinOp::Sub => 9,
        BinOp::Mul | BinOp::Div | BinOp::Rem => 10,
    }
}

fn bin_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::And => "&",
        BinOp::Or => "|",
        BinOp::Xor => "^",
        BinOp::Shl => "<<",
        BinOp::Shr => ">>",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::LAnd => "&&",
        BinOp::LOr => "||",
    }
}

fn expr_prec(e: &Expr, parent_prec: u8) -> String {
    match e {
        Expr::Int(v) => {
            if *v < 0 {
                // A negative literal needs parens when it would bind with a
                // preceding operator (e.g. `a - -1`); always wrap for safety.
                format!("({v})")
            } else {
                v.to_string()
            }
        }
        Expr::Str(s) => format!("\"{}\"", escape(s)),
        Expr::Null => "null".into(),
        Expr::Var(v) => v.clone(),
        Expr::Unary(op, inner) => {
            let o = match op {
                UnOp::Neg => "-",
                UnOp::Not => "!",
                UnOp::BitNot => "~",
            };
            let s = format!("{o}{}", expr_prec(inner, 12));
            if parent_prec > 12 {
                format!("({s})")
            } else {
                s
            }
        }
        Expr::Binary(op, a, b) => {
            let prec = bin_prec(*op);
            let s = format!(
                "{} {} {}",
                expr_prec(a, prec),
                bin_str(*op),
                expr_prec(b, prec + 1)
            );
            if prec < parent_prec {
                format!("({s})")
            } else {
                s
            }
        }
        Expr::Deref(inner) => {
            let s = format!("*{}", expr_prec(inner, 12));
            if parent_prec > 12 {
                format!("({s})")
            } else {
                s
            }
        }
        Expr::AddrOf(inner) => {
            let s = format!("&{}", expr_prec(inner, 12));
            if parent_prec > 12 {
                format!("({s})")
            } else {
                s
            }
        }
        Expr::Index(a, i) => format!("{}[{}]", expr_prec(a, 13), expr_str(i)),
        Expr::Field(a, f) => format!("{}.{f}", expr_prec(a, 13)),
        Expr::Arrow(a, f) => format!("{}->{f}", expr_prec(a, 13)),
        Expr::Cast(t, inner) => {
            // Always parenthesise: a `*` or `[N]` after the target type would
            // otherwise be absorbed into the type when re-parsing.
            format!("({} as {})", expr_prec(inner, 12), type_str(t))
        }
        Expr::Call(callee, args) => {
            let a: Vec<String> = args.iter().map(expr_str).collect();
            format!("{}({})", expr_prec(callee, 13), a.join(", "))
        }
        Expr::SizeOf(t) => format!("sizeof({})", type_str(t)),
    }
}

fn escape(s: &str) -> String {
    let mut out = String::new();
    for c in s.chars() {
        match c {
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            '\0' => out.push_str("\\0"),
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            other => out.push(other),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::VarDecl;
    use crate::parser::{parse_expr, parse_program};
    use crate::types::BoundExpr;

    #[test]
    fn expr_round_trip() {
        let cases = [
            "1 + 2 * 3",
            "(1 + 2) * 3",
            "a->b.c[i + 1]",
            "f(g(x), y + 1)",
            "*p + buf[n - 1]",
            "x as u32 + 1",
            "!(a && b) || c",
            "-x * ~y",
            "sizeof(struct inode) + 4",
        ];
        for src in cases {
            let e = parse_expr(src).unwrap();
            let printed = expr_str(&e);
            let reparsed = parse_expr(&printed).unwrap();
            assert_eq!(e, reparsed, "round trip failed for `{src}` -> `{printed}`");
        }
    }

    #[test]
    fn program_round_trip() {
        let src = r#"
            typedef size_t = u32;
            struct sk_buff {
                len: u32;
                data: u8 * count(len);
            }
            global jiffies: u64 = 0;
            #[blocking] #[allocator]
            fn kmalloc(size: u32, flags: u32) -> void * {
                return null;
            }
            fn fill(buf: u8 * count(n), n: u32) {
                let i: u32 = 0;
                while (i < n) {
                    buf[i] = i as u8;
                    i = i + 1;
                }
                if (n == 0) { return; } else { buf[0] = 0; }
            }
        "#;
        let p = parse_program(src).unwrap();
        let printed = pretty_program(&p);
        let reparsed = parse_program(&printed).unwrap();
        let reprinted = pretty_program(&reparsed);
        assert_eq!(printed, reprinted);
        assert_eq!(p.functions.len(), reparsed.functions.len());
        assert_eq!(p.composites.len(), reparsed.composites.len());
    }

    #[test]
    fn prints_annotations() {
        let f = Function::new(
            "f",
            vec![VarDecl::new(
                "p",
                Type::ptr_count(Type::u8(), BoundExpr::var("n")),
            )],
            Type::Void,
            vec![],
        );
        let s = pretty_function(&f);
        assert!(s.contains("p: u8 * count(n)"));
    }

    #[test]
    fn negative_literal_parenthesised() {
        let e = Expr::sub(Expr::var("a"), Expr::Int(-1));
        let s = expr_str(&e);
        let reparsed = parse_expr(&s).unwrap();
        assert_eq!(e, reparsed);
    }
}
