//! Structural content hashing of AST nodes, and the layout hash of the
//! spans they carry.
//!
//! `pretty_function` + FNV gives a correct content identity, but it
//! allocates the full source text of every function just to hash it — on
//! the incremental points-to path that string building dominates the whole
//! re-solve. This module hashes the AST directly. The content hash skips
//! source spans (they shift for *every* function downstream of an edit, so
//! a span-sensitive content hash would dirty the whole program); the same
//! walk hashes the spans separately into a *layout* hash, with lines
//! relative to the function's start line, so a function moved as a whole
//! keeps both hashes and one with blank lines added inside changes only
//! its layout.
//!
//! Two nodes hash equal only if they are structurally equal up to spans,
//! which implies they pretty-print identically — so a content hash from
//! here is at least as fine as the pretty-text hash it replaces, and safe
//! for any cache keyed on definition content.
//!
//! [`ProgramHashes`] bundles these into the identity of a program state:
//! the analysis engine computes it once per state and keys its context
//! store, its edit diff and its per-function query keys on it.
//!
//! Every match below destructures all fields explicitly: adding a field or
//! variant to the AST breaks compilation here rather than silently
//! weakening cache keys.

use crate::ast::{Block, Check, Expr, Function, Program, Stmt, VarDecl};
use crate::span::Span;
use std::hash::{Hash, Hasher};

/// 64-bit FNV-1a [`Hasher`], deterministic across processes.
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The identity of one program state, computed in one pass over the AST.
///
/// Two programs get equal `program` hashes exactly when they are
/// structurally equal and every span is equal too (barring 64-bit
/// collisions): a program state's diagnostics carry its spans, so a state
/// that moved a line is a different state. The content parts (`env`,
/// `functions`) are span-insensitive and match pretty-printed equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramHashes {
    /// The type environment: [`program_env_hash`].
    pub env: u64,
    /// [`function_content_hash`] of every function, in program order.
    pub functions: Vec<u64>,
    /// [`function_layout_hash`] of every function, in program order.
    pub layouts: Vec<u64>,
    /// Hash of the spans outside functions: every composite's, field's
    /// and global's.
    pub env_layout: u64,
    /// `env`, the environment's spans, and every function's content hash,
    /// layout hash and start line, in order: the program's identity.
    pub program: u64,
}

impl ProgramHashes {
    /// Hashes every part of a program once.
    pub fn of(p: &Program) -> ProgramHashes {
        let (functions, layouts) = p.functions.iter().map(function_hashes).unzip();
        ProgramHashes::assemble(
            program_env_hash(p),
            env_layout_hash(p),
            functions,
            layouts,
            p,
        )
    }

    /// The hashes of `edited`, a program equal to `base` (the program
    /// `self` hashes) except for the function at `index`, spans included
    /// — the shape a function-level re-parse produces. Only that
    /// function's hashes are computed; the environment is re-hashed only
    /// when the function's signature changed.
    pub fn with_function(&self, base: &Program, edited: &Program, index: usize) -> ProgramHashes {
        let (old, new) = (&base.functions[index], &edited.functions[index]);
        let (mut functions, mut layouts) = (self.functions.clone(), self.layouts.clone());
        (functions[index], layouts[index]) = function_hashes(new);
        let env = if signature_hash(old) == signature_hash(new) {
            self.env
        } else {
            program_env_hash(edited)
        };
        ProgramHashes::assemble(env, self.env_layout, functions, layouts, edited)
    }

    fn assemble(
        env: u64,
        env_layout: u64,
        functions: Vec<u64>,
        layouts: Vec<u64>,
        p: &Program,
    ) -> ProgramHashes {
        let mut h = FnvHasher::default();
        h.write_u64(env);
        h.write_u64(env_layout);
        for ((content, layout), f) in functions.iter().zip(&layouts).zip(&p.functions) {
            h.write_u64(*content);
            h.write_u64(*layout);
            h.write_u32(f.span.start.line);
        }
        ProgramHashes {
            env,
            functions,
            layouts,
            env_layout,
            program: h.finish(),
        }
    }
}

/// Content hash of a function definition: name, signature, attributes,
/// subsystem, and body — everything except source spans.
pub fn function_content_hash(f: &Function) -> u64 {
    function_hashes(f).0
}

/// Layout hash of a function definition: every span in it, the
/// function's own included, with lines relative to the function's start
/// line (columns as they are).
pub fn function_layout_hash(f: &Function) -> u64 {
    function_hashes(f).1
}

/// [`function_content_hash`] and [`function_layout_hash`], in one walk.
pub fn function_hashes(f: &Function) -> (u64, u64) {
    let Function {
        name,
        params,
        ret,
        body,
        attrs,
        subsystem,
        span,
    } = f;
    let mut w = FnHashes {
        content: FnvHasher::default(),
        layout: FnvHasher::default(),
        base: span.start.line,
    };
    w.span(*span);
    name.hash(&mut w.content);
    params.len().hash(&mut w.content);
    for p in params {
        w.decl(p);
    }
    ret.hash(&mut w.content);
    attrs.hash(&mut w.content);
    subsystem.hash(&mut w.content);
    match body {
        None => w.content.write_u8(0),
        Some(b) => {
            w.content.write_u8(1);
            hash_block(b, &mut w);
        }
    }
    (w.content.finish(), w.layout.finish())
}

/// The two hashers of one walk over a function.
struct FnHashes {
    content: FnvHasher,
    layout: FnvHasher,
    /// The function's start line; layout lines are relative to it.
    base: u32,
}

impl FnHashes {
    fn span(&mut self, span: Span) {
        for pos in [span.start, span.end] {
            self.layout.write_u32(pos.line.wrapping_sub(self.base));
            self.layout.write_u32(pos.col);
        }
    }

    fn decl(&mut self, d: &VarDecl) {
        hash_decl(d, &mut self.content);
        self.span(d.span);
    }
}

/// Hash of the spans outside functions: every composite's and field's,
/// and every global's.
fn env_layout_hash(p: &Program) -> u64 {
    let mut h = FnvHasher::default();
    for c in p.composites.iter() {
        c.span.hash(&mut h);
        for f in &c.fields {
            f.span.hash(&mut h);
        }
    }
    for g in p.globals.iter() {
        g.decl.span.hash(&mut h);
    }
    h.finish()
}

/// Hash of the whole-program type environment: composites, typedefs,
/// globals (with initializers), and every function *signature* (name,
/// parameters, return type, attributes, subsystem) — bodies and spans
/// excluded. The environment is everything an analysis of one function may
/// consult about the rest of the program short of reading callee bodies.
pub fn program_env_hash(p: &Program) -> u64 {
    let Program {
        composites,
        typedefs,
        globals,
        functions,
    } = p;
    let mut h = FnvHasher::default();
    composites.len().hash(&mut h);
    for c in composites.iter() {
        let crate::types::CompositeDef {
            name,
            is_union,
            fields,
            span: _,
        } = c;
        name.hash(&mut h);
        is_union.hash(&mut h);
        fields.len().hash(&mut h);
        for f in fields {
            let crate::types::Field {
                name,
                ty,
                when,
                span: _,
            } = f;
            name.hash(&mut h);
            ty.hash(&mut h);
            when.hash(&mut h);
        }
    }
    typedefs.hash(&mut h);
    globals.len().hash(&mut h);
    for g in globals.iter() {
        let crate::ast::GlobalDef { decl, init } = g;
        hash_decl(decl, &mut h);
        match init {
            None => h.write_u8(0),
            Some(e) => {
                h.write_u8(1);
                hash_expr(e, &mut h);
            }
        }
    }
    functions.len().hash(&mut h);
    for f in functions {
        hash_signature(f, &mut h);
    }
    h.finish()
}

/// Hashes what [`program_env_hash`] reads of a function — its
/// signature: name, parameters, return type, attributes and subsystem.
fn hash_signature(f: &Function, h: &mut impl Hasher) {
    let Function {
        name,
        params,
        ret,
        body: _,
        attrs,
        subsystem,
        span: _,
    } = f;
    name.hash(h);
    params.len().hash(h);
    for p in params {
        hash_decl(p, h);
    }
    ret.hash(h);
    attrs.hash(h);
    subsystem.hash(h);
}

/// [`hash_signature`] on its own: two functions with equal signature
/// hashes leave [`program_env_hash`] unchanged when one replaces the
/// other.
fn signature_hash(f: &Function) -> u64 {
    let mut h = FnvHasher::default();
    hash_signature(f, &mut h);
    h.finish()
}

fn hash_decl(d: &VarDecl, h: &mut impl Hasher) {
    let VarDecl { name, ty, span: _ } = d;
    name.hash(h);
    ty.hash(h);
}

fn hash_block(b: &Block, w: &mut FnHashes) {
    let Block { stmts } = b;
    stmts.len().hash(&mut w.content);
    for s in stmts {
        hash_stmt(s, w);
    }
}

fn hash_stmt(s: &Stmt, w: &mut FnHashes) {
    let h = &mut w.content;
    match s {
        Stmt::Expr(e, span) => {
            h.write_u8(0);
            hash_expr(e, h);
            w.span(*span);
        }
        Stmt::Assign(lhs, rhs, span) => {
            h.write_u8(1);
            hash_expr(lhs, h);
            hash_expr(rhs, h);
            w.span(*span);
        }
        Stmt::Local(d, init) => {
            h.write_u8(2);
            w.decl(d);
            let h = &mut w.content;
            match init {
                None => h.write_u8(0),
                Some(e) => {
                    h.write_u8(1);
                    hash_expr(e, h);
                }
            }
        }
        Stmt::If(cond, then_b, else_b, span) => {
            h.write_u8(3);
            hash_expr(cond, h);
            w.span(*span);
            hash_block(then_b, w);
            match else_b {
                None => w.content.write_u8(0),
                Some(b) => {
                    w.content.write_u8(1);
                    hash_block(b, w);
                }
            }
        }
        Stmt::While(cond, body, span) => {
            h.write_u8(4);
            hash_expr(cond, h);
            w.span(*span);
            hash_block(body, w);
        }
        Stmt::Return(e, span) => {
            h.write_u8(5);
            match e {
                None => h.write_u8(0),
                Some(e) => {
                    h.write_u8(1);
                    hash_expr(e, h);
                }
            }
            w.span(*span);
        }
        Stmt::Break(span) => {
            h.write_u8(6);
            w.span(*span);
        }
        Stmt::Continue(span) => {
            h.write_u8(7);
            w.span(*span);
        }
        Stmt::Block(b) => {
            h.write_u8(8);
            hash_block(b, w);
        }
        Stmt::Check(c, span) => {
            h.write_u8(9);
            hash_check(c, h);
            w.span(*span);
        }
        Stmt::DelayedFreeScope(b, span) => {
            h.write_u8(10);
            w.span(*span);
            hash_block(b, w);
        }
    }
}

fn hash_check(c: &Check, h: &mut impl Hasher) {
    match c {
        Check::NonNull(e) => {
            h.write_u8(0);
            hash_expr(e, h);
        }
        Check::PtrBounds { ptr, index, len } => {
            h.write_u8(1);
            hash_expr(ptr, h);
            hash_expr(index, h);
            match len {
                None => h.write_u8(0),
                Some(e) => {
                    h.write_u8(1);
                    hash_expr(e, h);
                }
            }
        }
        Check::UnionTag {
            obj,
            field,
            tag,
            value,
        } => {
            h.write_u8(2);
            hash_expr(obj, h);
            field.hash(h);
            tag.hash(h);
            value.hash(h);
        }
        Check::NullTerm(e) => {
            h.write_u8(3);
            hash_expr(e, h);
        }
        Check::AssertMayBlock { site } => {
            h.write_u8(4);
            site.hash(h);
        }
        Check::RcFreeOk(e) => {
            h.write_u8(5);
            hash_expr(e, h);
        }
    }
}

fn hash_expr(e: &Expr, h: &mut impl Hasher) {
    match e {
        Expr::Int(v) => {
            h.write_u8(0);
            v.hash(h);
        }
        Expr::Str(s) => {
            h.write_u8(1);
            s.hash(h);
        }
        Expr::Null => h.write_u8(2),
        Expr::Var(name) => {
            h.write_u8(3);
            name.hash(h);
        }
        Expr::Unary(op, inner) => {
            h.write_u8(4);
            op.hash(h);
            hash_expr(inner, h);
        }
        Expr::Binary(op, a, b) => {
            h.write_u8(5);
            op.hash(h);
            hash_expr(a, h);
            hash_expr(b, h);
        }
        Expr::Deref(inner) => {
            h.write_u8(6);
            hash_expr(inner, h);
        }
        Expr::AddrOf(inner) => {
            h.write_u8(7);
            hash_expr(inner, h);
        }
        Expr::Index(base, idx) => {
            h.write_u8(8);
            hash_expr(base, h);
            hash_expr(idx, h);
        }
        Expr::Field(obj, field) => {
            h.write_u8(9);
            hash_expr(obj, h);
            field.hash(h);
        }
        Expr::Arrow(obj, field) => {
            h.write_u8(10);
            hash_expr(obj, h);
            field.hash(h);
        }
        Expr::Cast(ty, inner) => {
            h.write_u8(11);
            ty.hash(h);
            hash_expr(inner, h);
        }
        Expr::Call(callee, args) => {
            h.write_u8(12);
            hash_expr(callee, h);
            args.len().hash(h);
            for a in args {
                hash_expr(a, h);
            }
        }
        Expr::SizeOf(ty) => {
            h.write_u8(13);
            ty.hash(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::Span;

    const SRC: &str = r#"
        global g: u32 = 0;
        fn f(n: u32) -> u32 { let x: u32 = n + 1; return x; }
        fn other(n: u32) -> u32 { return n; }
    "#;

    #[test]
    fn spans_do_not_affect_the_hash() {
        let p = parse_program(SRC).unwrap();
        let f = p.function("f").unwrap();
        let mut shifted = f.clone();
        shifted.span = Span::synthetic();
        if let Some(body) = shifted.body.as_mut() {
            if let Stmt::Return(_, span) = &mut body.stmts[1] {
                *span = Span::synthetic();
            }
        }
        assert_eq!(function_content_hash(f), function_content_hash(&shifted));
    }

    #[test]
    fn content_changes_change_the_hash() {
        let p = parse_program(SRC).unwrap();
        let q = parse_program(&SRC.replace("n + 1", "n + 2")).unwrap();
        let f = p.function("f").unwrap();
        assert_ne!(
            function_content_hash(f),
            function_content_hash(q.function("f").unwrap())
        );
        assert_ne!(
            function_content_hash(f),
            function_content_hash(p.function("other").unwrap())
        );
        // Same pretty text, different spans: same content hashes.
        let reparsed = parse_program(&crate::pretty::pretty_program(&p)).unwrap();
        assert_eq!(
            function_content_hash(f),
            function_content_hash(reparsed.function("f").unwrap())
        );
        let (printed, original) = (ProgramHashes::of(&reparsed), ProgramHashes::of(&p));
        assert_eq!(
            (printed.env, &printed.functions),
            (original.env, &original.functions)
        );
    }

    #[test]
    fn layout_hashes_track_spans_relative_to_the_function() {
        let p = parse_program(SRC).unwrap();
        let base = ProgramHashes::of(&p);
        // Blank lines inside `f`: its content stays, its layout does not,
        // and `other` only moves.
        let inside = ProgramHashes::of(
            &parse_program(&SRC.replace("let x: u32 = n + 1;", "let x: u32 = n + 1;\n\n")).unwrap(),
        );
        assert_eq!(inside.functions, base.functions);
        assert_ne!(inside.layouts[0], base.layouts[0]);
        assert_eq!(inside.layouts[1], base.layouts[1]);
        assert_ne!(inside.program, base.program);
        // Blank lines above everything move every item: hashes stay, the
        // identity does not.
        let above = ProgramHashes::of(&parse_program(&format!("\n\n{SRC}")).unwrap());
        assert_eq!(
            (above.env, &above.functions, &above.layouts),
            (base.env, &base.functions, &base.layouts)
        );
        assert_ne!(above.program, base.program);
    }

    #[test]
    fn env_hash_tracks_signatures_not_bodies() {
        let p = parse_program(SRC).unwrap();
        let body_edit = parse_program(&SRC.replace("n + 1", "n + 2")).unwrap();
        assert_eq!(
            program_env_hash(&p),
            program_env_hash(&body_edit),
            "body edits keep the env hash"
        );
        let sig_edit = parse_program(&SRC.replace("fn other(n: u32)", "fn other(m: u32)")).unwrap();
        assert_ne!(
            program_env_hash(&p),
            program_env_hash(&sig_edit),
            "signature edits change the env hash"
        );
    }

    #[test]
    fn with_function_matches_a_full_rehash() {
        let p = parse_program(SRC).unwrap();
        let base = ProgramHashes::of(&p);
        for edited in [
            SRC.replace("n + 1", "n + 2"),
            SRC.replace("fn other(n: u32)", "fn other(m: u32)"),
        ] {
            let q = parse_program(&edited).unwrap();
            let index = p
                .functions
                .iter()
                .zip(&q.functions)
                .position(|(a, b)| function_content_hash(a) != function_content_hash(b))
                .unwrap();
            assert_eq!(base.with_function(&p, &q, index), ProgramHashes::of(&q));
        }
    }

    #[test]
    fn the_program_hash_covers_bodies_globals_and_order() {
        let p = ProgramHashes::of(&parse_program(SRC).unwrap());
        let body = ProgramHashes::of(&parse_program(&SRC.replace("n + 1", "n + 2")).unwrap());
        assert_eq!(body.env, p.env);
        assert_ne!(body.functions[0], p.functions[0]);
        assert_eq!(body.functions[1], p.functions[1]);
        assert_ne!(body.program, p.program);
        let global = ProgramHashes::of(&parse_program(&SRC.replace("= 0;", "= 1;")).unwrap());
        assert_eq!(global.functions, p.functions);
        assert_ne!(global.program, p.program);
        let mut swapped = parse_program(SRC).unwrap();
        swapped.functions = swapped.functions.arcs().iter().rev().cloned().collect();
        assert_ne!(ProgramHashes::of(&swapped).program, p.program);
    }
}
