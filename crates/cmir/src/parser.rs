//! Recursive-descent parser for the KC surface syntax.
//!
//! The grammar is a small, unambiguous C-flavoured language:
//!
//! ```text
//! item    := struct | union | typedef | global | function
//! struct  := "struct" NAME "{" (field ";")* "}"
//! field   := NAME ":" type ("when" "(" NAME "==" INT ")")?
//! typedef := "typedef" NAME "=" type ";"
//! global  := "global" NAME ":" type ("=" expr)? ";"
//! func    := attr* "extern"? "fn" NAME "(" params ")" ("->" type)? (block | ";")
//! attr    := "#" "[" NAME ("(" args ")")? "]"
//! type    := base ("*" annots | "[" INT "]")*
//! annots  := ("count" "(" bexpr ")" | "bound" "(" bexpr "," bexpr ")"
//!            | "single" | "auto" | "nullterm" | "nonnull" | "opt"
//!            | "trusted" | "poly")*
//! ```
//!
//! Statements use `let x: T = e;` declarations, `if`/`else`, `while`, `for`
//! (desugared into `while`), `return`, `break`, `continue`, assignment and
//! expression statements, `delayed_free { ... }` scopes, and the `__check_*`
//! / `__assert_may_block` forms that print inserted run-time checks.

use crate::ast::BinOp;
use crate::ast::{
    Block, Check, Expr, FuncAttrs, Function, Functions, GlobalDef, Program, Stmt, UnOp, VarDecl,
};
use crate::error::{CmirError, Result};
use crate::lexer::{lex, lex_at};
use crate::span::{Pos, Span};
use crate::token::{Token, TokenKind};
use crate::types::{BoundExpr, Bounds, CompositeDef, Field, FuncType, IntKind, PtrAnnot, Type};
use std::sync::Arc;

/// Parses a complete KC source string into a [`Program`].
pub fn parse_program(src: &str) -> Result<Program> {
    let tokens = lex(src)?;
    Parser::new(tokens).program()
}

/// Parses a single expression (used by tests and tools).
pub fn parse_expr(src: &str) -> Result<Expr> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// Parses a single type (used by tests and the annotation repository).
pub fn parse_type(src: &str) -> Result<Type> {
    let tokens = lex(src)?;
    let mut p = Parser::new(tokens);
    let t = p.ty()?;
    p.expect_eof()?;
    Ok(t)
}

/// How [`reparse`] produced its program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReparsePath {
    /// Only the function at this index of [`Program::functions`] was
    /// lexed and parsed; every other item was taken from the base.
    Function(usize),
    /// The whole source was parsed.
    Full,
}

impl ReparsePath {
    /// Stable lowercase name (`function` or `full`).
    pub fn name(&self) -> &'static str {
        match self {
            ReparsePath::Function(_) => "function",
            ReparsePath::Full => "full",
        }
    }
}

/// A program produced by [`reparse`], with the path that produced it.
#[derive(Debug, Clone)]
pub struct Reparsed {
    /// The parsed program: always equal to `parse_program` of the source.
    pub program: Program,
    /// Which path produced it.
    pub path: ReparsePath,
}

/// Parses `src`, an edit of `base_src`, reusing every item of `base`
/// (which must be `parse_program(base_src)`) that the edit cannot
/// reach. The program is always equal to `parse_program(src)`, spans
/// included, and an error carries the same message.
///
/// The edit is the byte range where the two sources differ (common
/// prefix and suffix removed). When that range lies inside one function
/// item — from its first token up to, but not touching, the end of the
/// next item's first token — and replaces as many newlines as it
/// removes, only that function is lexed and parsed, at its absolute
/// position. Every other case parses the whole source.
pub fn reparse(base_src: &str, base: &Program, src: &str) -> Result<Reparsed> {
    if let Some((index, function)) = reparse_function(base_src, base, src) {
        let mut program = base.clone();
        program.functions.set(index, Arc::new(function));
        return Ok(Reparsed {
            program,
            path: ReparsePath::Function(index),
        });
    }
    parse_program(src).map(|program| Reparsed {
        program,
        path: ReparsePath::Full,
    })
}

/// Where `edited` differs from `base`: the byte offset `at` where the
/// common prefix ends, and where the common suffix starts in `base` and
/// in `edited`. Every offset is a char boundary, and the prefix and
/// suffix never overlap, so `base[at..base_end]` is the text the edit
/// removed and `edited[at..edited_end]` the text it inserted.
pub fn changed_range(base: &str, edited: &str) -> (usize, usize, usize) {
    let (old, new) = (base.as_bytes(), edited.as_bytes());
    let mut at = old.iter().zip(new).take_while(|(a, b)| a == b).count();
    while !base.is_char_boundary(at) {
        at -= 1;
    }
    let mut suffix = old[at..]
        .iter()
        .rev()
        .zip(new[at..].iter().rev())
        .take_while(|(a, b)| a == b)
        .count();
    while !base.is_char_boundary(old.len() - suffix) {
        suffix -= 1;
    }
    (at, old.len() - suffix, new.len() - suffix)
}

/// The function-level path of [`reparse`]: the index of the one
/// function the edit touches and its re-parse, or `None` when the edit
/// needs a full parse.
fn reparse_function(base_src: &str, base: &Program, src: &str) -> Option<(usize, Function)> {
    let (old, new) = (base_src.as_bytes(), src.as_bytes());
    let (at, old_end, new_end) = changed_range(base_src, src);
    let newlines = |bytes: &[u8]| bytes.iter().filter(|&&b| b == b'\n').count();
    if newlines(&old[at..old_end]) != newlines(&new[at..new_end]) {
        return None;
    }

    // The last function starting at or before the edit; its span runs
    // from its first token to the end of the next item's first token.
    let lines = LineIndex::new(base_src);
    let edit_start = lines.pos(base_src, at);
    let index = base
        .functions
        .arcs()
        .partition_point(|f| f.span.start <= edit_start)
        .checked_sub(1)?;
    let span = base.functions[index].span;
    if !span.is_real() {
        return None;
    }
    let start = lines.byte(base_src, span.start)?;
    let end = lines.byte(base_src, span.end)?;
    // Only `start..end` is lexed, so an edit reaching `end` could change
    // how the text after it lexes (`fn` + `//` comments out the rest of
    // the line) unseen: it must stop short of `end`, unless the slice
    // runs to the end of the input.
    if start > at || old_end > end || (old_end == end && end < old.len()) {
        return None;
    }
    let old_tokens = lex_at(&base_src[start..end], span.start).ok()?;
    let new_tokens = lex_at(src.get(start..end + new_end - old_end)?, span.start).ok()?;
    // The first token is the end of the previous item's span, and the
    // next item's first token ends this one's: both must be unmoved.
    if new_tokens.first() != old_tokens.first() {
        return None;
    }
    let next = if end == old.len() {
        new_tokens.len() - 1
    } else {
        let n = new_tokens.len().checked_sub(2)?;
        if old_tokens.len() < 2 || new_tokens[n] != old_tokens[old_tokens.len() - 2] {
            return None;
        }
        n
    };
    let mut parser = Parser::new(new_tokens);
    let function = parser.function().ok()?;
    (parser.idx == next).then_some((index, function))
}

/// Byte offsets of line starts, for converting between byte offsets and
/// the lexer's 1-based (line, character column) positions.
struct LineIndex {
    starts: Vec<usize>,
}

impl LineIndex {
    fn new(src: &str) -> LineIndex {
        let mut starts = vec![0];
        starts.extend(
            src.bytes()
                .enumerate()
                .filter(|&(_, b)| b == b'\n')
                .map(|(i, _)| i + 1),
        );
        LineIndex { starts }
    }

    /// The position of byte offset `at` (a char boundary).
    fn pos(&self, src: &str, at: usize) -> Pos {
        let line = self.starts.partition_point(|&s| s <= at) - 1;
        let col = src[self.starts[line]..at].chars().count() + 1;
        Pos::new(line as u32 + 1, col as u32)
    }

    /// The byte offset of `pos`, if it lies in `src` (a column one past
    /// the line's last character is the line's end).
    fn byte(&self, src: &str, pos: Pos) -> Option<usize> {
        let line_start = *self.starts.get((pos.line as usize).checked_sub(1)?)?;
        let line_end = self
            .starts
            .get(pos.line as usize)
            .map_or(src.len(), |next| next - 1);
        let line = &src[line_start..line_end];
        let col = (pos.col as usize).checked_sub(1)?;
        match line.char_indices().nth(col) {
            Some((offset, _)) => Some(line_start + offset),
            None => (line.chars().count() == col).then_some(line_end),
        }
    }
}

struct Parser {
    tokens: Vec<Token>,
    idx: usize,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser { tokens, idx: 0 }
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.idx.min(self.tokens.len() - 1)].kind
    }

    fn peek_span(&self) -> Span {
        self.tokens[self.idx.min(self.tokens.len() - 1)].span
    }

    fn peek_ident(&self) -> Option<&str> {
        self.peek().as_ident()
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.idx.min(self.tokens.len() - 1)].clone();
        if self.idx < self.tokens.len() - 1 {
            self.idx += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek_ident() == Some(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token> {
        if self.peek() == &kind {
            Ok(self.bump())
        } else {
            Err(CmirError::parse(
                format!("expected {kind}, found {}", self.peek()),
                self.peek_span(),
            ))
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(CmirError::parse(
                format!("expected `{kw}`, found {}", self.peek()),
                self.peek_span(),
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.peek() {
            TokenKind::Ident(s) => {
                let s = s.clone();
                self.bump();
                Ok(s)
            }
            other => Err(CmirError::parse(
                format!("expected identifier, found {other}"),
                self.peek_span(),
            )),
        }
    }

    fn expect_int(&mut self) -> Result<i64> {
        // Allow a leading minus so attribute arguments like `-12` work.
        let neg = self.eat(&TokenKind::Minus);
        match self.peek() {
            TokenKind::Int(v) => {
                let v = *v;
                self.bump();
                Ok(if neg { -v } else { v })
            }
            other => Err(CmirError::parse(
                format!("expected integer, found {other}"),
                self.peek_span(),
            )),
        }
    }

    fn expect_eof(&mut self) -> Result<()> {
        if matches!(self.peek(), TokenKind::Eof) {
            Ok(())
        } else {
            Err(CmirError::parse(
                format!("expected end of input, found {}", self.peek()),
                self.peek_span(),
            ))
        }
    }

    // ----- items -----

    fn program(&mut self) -> Result<Program> {
        let (mut composites, mut typedefs, mut globals) = (Vec::new(), Vec::new(), Vec::new());
        let mut functions = Functions::new();
        loop {
            match self.peek() {
                TokenKind::Eof => {
                    return Ok(Program {
                        composites: Arc::new(composites),
                        typedefs: Arc::new(typedefs),
                        globals: globals.into(),
                        functions,
                    })
                }
                TokenKind::Ident(kw) if kw == "struct" => {
                    let c = self.composite(false)?;
                    composites.push(c);
                }
                TokenKind::Ident(kw) if kw == "union" => {
                    let c = self.composite(true)?;
                    composites.push(c);
                }
                TokenKind::Ident(kw) if kw == "typedef" => {
                    self.bump();
                    let name = self.expect_ident()?;
                    self.expect(TokenKind::Assign)?;
                    let ty = self.ty()?;
                    self.expect(TokenKind::Semi)?;
                    typedefs.push((name, ty));
                }
                TokenKind::Ident(kw) if kw == "global" => {
                    self.bump();
                    let name = self.expect_ident()?;
                    self.expect(TokenKind::Colon)?;
                    let ty = self.ty()?;
                    let init = if self.eat(&TokenKind::Assign) {
                        Some(self.expr()?)
                    } else {
                        None
                    };
                    self.expect(TokenKind::Semi)?;
                    globals.push(GlobalDef {
                        decl: VarDecl::new(name, ty),
                        init,
                    });
                }
                TokenKind::Hash | TokenKind::Ident(_) => {
                    let f = self.function()?;
                    functions.push(f);
                }
                other => {
                    return Err(CmirError::parse(
                        format!("expected item, found {other}"),
                        self.peek_span(),
                    ))
                }
            }
        }
    }

    fn composite(&mut self, is_union: bool) -> Result<CompositeDef> {
        let start = self.peek_span();
        self.bump(); // struct / union
        let name = self.expect_ident()?;
        self.expect(TokenKind::LBrace)?;
        let mut fields = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            let fstart = self.peek_span();
            let fname = self.expect_ident()?;
            self.expect(TokenKind::Colon)?;
            let fty = self.ty()?;
            let when = if self.eat_kw("when") {
                self.expect(TokenKind::LParen)?;
                let tag = self.expect_ident()?;
                self.expect(TokenKind::EqEq)?;
                let v = self.expect_int()?;
                self.expect(TokenKind::RParen)?;
                Some((tag, v))
            } else {
                None
            };
            self.expect(TokenKind::Semi)?;
            fields.push(Field {
                name: fname,
                ty: fty,
                when,
                span: fstart.merge(self.peek_span()),
            });
        }
        Ok(CompositeDef {
            name,
            is_union,
            fields,
            span: start.merge(self.peek_span()),
        })
    }

    fn attributes(&mut self) -> Result<(FuncAttrs, Option<String>)> {
        let mut attrs = FuncAttrs::default();
        let mut subsystem = None;
        while self.eat(&TokenKind::Hash) {
            self.expect(TokenKind::LBracket)?;
            let name = self.expect_ident()?;
            match name.as_str() {
                "blocking" => attrs.blocking = true,
                "irq_handler" => attrs.interrupt_handler = true,
                "trusted" => attrs.trusted = true,
                "inline_asm" => attrs.inline_asm = true,
                "allocator" => attrs.allocator = true,
                "deallocator" => attrs.deallocator = true,
                "disables_irq" => attrs.disables_irq = true,
                "blocking_if" => {
                    self.expect(TokenKind::LParen)?;
                    attrs.blocking_if_flag = Some(self.expect_ident()?);
                    self.expect(TokenKind::RParen)?;
                }
                "acquires" => {
                    self.expect(TokenKind::LParen)?;
                    attrs.acquires.push(self.expect_ident()?);
                    self.expect(TokenKind::RParen)?;
                }
                "releases" => {
                    self.expect(TokenKind::LParen)?;
                    attrs.releases.push(self.expect_ident()?);
                    self.expect(TokenKind::RParen)?;
                }
                "error_codes" => {
                    self.expect(TokenKind::LParen)?;
                    loop {
                        attrs.error_codes.push(self.expect_int()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(TokenKind::RParen)?;
                }
                "subsystem" => {
                    self.expect(TokenKind::LParen)?;
                    match self.peek().clone() {
                        TokenKind::Str(s) => {
                            self.bump();
                            subsystem = Some(s);
                        }
                        _ => subsystem = Some(self.expect_ident()?),
                    }
                    self.expect(TokenKind::RParen)?;
                }
                other => {
                    return Err(CmirError::parse(
                        format!("unknown attribute `{other}`"),
                        self.peek_span(),
                    ))
                }
            }
            self.expect(TokenKind::RBracket)?;
        }
        Ok((attrs, subsystem))
    }

    fn function(&mut self) -> Result<Function> {
        let start = self.peek_span();
        let (attrs, subsystem) = self.attributes()?;
        let is_extern = self.eat_kw("extern");
        self.expect_kw("fn")?;
        let name = self.expect_ident()?;
        self.expect(TokenKind::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&TokenKind::RParen) {
            loop {
                let pspan = self.peek_span();
                let pname = self.expect_ident()?;
                self.expect(TokenKind::Colon)?;
                let pty = self.ty()?;
                params.push(VarDecl {
                    name: pname,
                    ty: pty,
                    span: pspan,
                });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(TokenKind::RParen)?;
        }
        let ret = if self.eat(&TokenKind::Arrow) {
            self.ty()?
        } else {
            Type::Void
        };
        let body = if is_extern || self.peek() == &TokenKind::Semi {
            self.expect(TokenKind::Semi)?;
            None
        } else {
            Some(self.block()?)
        };
        Ok(Function {
            name,
            params,
            ret,
            body,
            attrs,
            subsystem: subsystem.unwrap_or_else(|| "kernel".to_string()),
            span: start.merge(self.peek_span()),
        })
    }

    // ----- types -----

    fn ty(&mut self) -> Result<Type> {
        let mut base = self.base_type()?;
        loop {
            if self.eat(&TokenKind::Star) {
                let ann = self.ptr_annots()?;
                base = Type::Ptr(Box::new(base), ann);
            } else if self.peek() == &TokenKind::LBracket {
                self.bump();
                let n = self.expect_int()?;
                if n < 0 {
                    return Err(CmirError::parse("negative array length", self.peek_span()));
                }
                self.expect(TokenKind::RBracket)?;
                base = Type::Array(Box::new(base), n as u64);
            } else {
                return Ok(base);
            }
        }
    }

    fn base_type(&mut self) -> Result<Type> {
        let span = self.peek_span();
        let name = self.expect_ident()?;
        Ok(match name.as_str() {
            "void" => Type::Void,
            "bool" => Type::Bool,
            "i8" => Type::Int(IntKind::I8),
            "u8" => Type::Int(IntKind::U8),
            "i16" => Type::Int(IntKind::I16),
            "u16" => Type::Int(IntKind::U16),
            "i32" => Type::Int(IntKind::I32),
            "u32" => Type::Int(IntKind::U32),
            "i64" => Type::Int(IntKind::I64),
            "u64" => Type::Int(IntKind::U64),
            "struct" => Type::Struct(self.expect_ident()?),
            "union" => Type::Union(self.expect_ident()?),
            "fnptr" => {
                self.expect(TokenKind::LParen)?;
                let mut params = Vec::new();
                if !self.eat(&TokenKind::RParen) {
                    loop {
                        params.push(self.ty()?);
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                    self.expect(TokenKind::RParen)?;
                }
                self.expect(TokenKind::Arrow)?;
                let ret = self.ty()?;
                Type::Func(Box::new(FuncType { params, ret }))
            }
            "let" | "if" | "while" | "for" | "return" => {
                return Err(CmirError::parse(format!("`{name}` is not a type"), span))
            }
            other => Type::Named(other.to_string()),
        })
    }

    fn ptr_annots(&mut self) -> Result<PtrAnnot> {
        let mut ann = PtrAnnot::unknown();
        loop {
            let Some(kw) = self.peek_ident() else {
                return Ok(ann);
            };
            match kw {
                "count" => {
                    self.bump();
                    self.expect(TokenKind::LParen)?;
                    let e = self.bound_expr()?;
                    self.expect(TokenKind::RParen)?;
                    ann.bounds = Bounds::Count(e);
                }
                "bound" => {
                    self.bump();
                    self.expect(TokenKind::LParen)?;
                    let lo = self.bound_expr()?;
                    self.expect(TokenKind::Comma)?;
                    let hi = self.bound_expr()?;
                    self.expect(TokenKind::RParen)?;
                    ann.bounds = Bounds::Bound(lo, hi);
                }
                "single" => {
                    self.bump();
                    ann.bounds = Bounds::Single;
                }
                "auto" => {
                    self.bump();
                    ann.bounds = Bounds::Auto;
                }
                "nullterm" => {
                    self.bump();
                    ann.nullterm = true;
                }
                "nonnull" => {
                    self.bump();
                    ann.nonnull = true;
                }
                "opt" => {
                    self.bump();
                    ann.opt = true;
                }
                "trusted" => {
                    self.bump();
                    ann.trusted = true;
                }
                "poly" => {
                    self.bump();
                    ann.poly = true;
                }
                _ => return Ok(ann),
            }
        }
    }

    fn bound_expr(&mut self) -> Result<BoundExpr> {
        self.bound_add()
    }

    fn bound_add(&mut self) -> Result<BoundExpr> {
        let mut lhs = self.bound_mul()?;
        loop {
            if self.eat(&TokenKind::Plus) {
                lhs = BoundExpr::Add(Box::new(lhs), Box::new(self.bound_mul()?));
            } else if self.eat(&TokenKind::Minus) {
                lhs = BoundExpr::Sub(Box::new(lhs), Box::new(self.bound_mul()?));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn bound_mul(&mut self) -> Result<BoundExpr> {
        let mut lhs = self.bound_atom()?;
        while self.eat(&TokenKind::Star) {
            lhs = BoundExpr::Mul(Box::new(lhs), Box::new(self.bound_atom()?));
        }
        Ok(lhs)
    }

    fn bound_atom(&mut self) -> Result<BoundExpr> {
        if self.eat(&TokenKind::Minus) {
            return Ok(match self.bound_atom()? {
                BoundExpr::Const(v) => BoundExpr::Const(-v),
                other => BoundExpr::Sub(Box::new(BoundExpr::Const(0)), Box::new(other)),
            });
        }
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(BoundExpr::Const(v))
            }
            TokenKind::Ident(name) => {
                self.bump();
                Ok(BoundExpr::Var(name))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.bound_expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            other => Err(CmirError::parse(
                format!("expected bound expression, found {other}"),
                self.peek_span(),
            )),
        }
    }

    // ----- statements -----

    fn block(&mut self) -> Result<Block> {
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.eat(&TokenKind::RBrace) {
            stmts.push(self.stmt()?);
        }
        Ok(Block::new(stmts))
    }

    fn stmt(&mut self) -> Result<Stmt> {
        let span = self.peek_span();
        match self.peek() {
            TokenKind::LBrace => Ok(Stmt::Block(self.block()?)),
            TokenKind::Ident(kw) => match kw.as_str() {
                "let" => {
                    self.bump();
                    let name = self.expect_ident()?;
                    self.expect(TokenKind::Colon)?;
                    let ty = self.ty()?;
                    let init = if self.eat(&TokenKind::Assign) {
                        Some(self.expr()?)
                    } else {
                        None
                    };
                    self.expect(TokenKind::Semi)?;
                    Ok(Stmt::Local(VarDecl { name, ty, span }, init))
                }
                "if" => {
                    self.bump();
                    self.expect(TokenKind::LParen)?;
                    let cond = self.expr()?;
                    self.expect(TokenKind::RParen)?;
                    let then = self.block()?;
                    let els = if self.eat_kw("else") {
                        if self.peek_ident() == Some("if") {
                            Some(Block::new(vec![self.stmt()?]))
                        } else {
                            Some(self.block()?)
                        }
                    } else {
                        None
                    };
                    Ok(Stmt::If(cond, then, els, span))
                }
                "while" => {
                    self.bump();
                    self.expect(TokenKind::LParen)?;
                    let cond = self.expr()?;
                    self.expect(TokenKind::RParen)?;
                    let body = self.block()?;
                    Ok(Stmt::While(cond, body, span))
                }
                "for" => {
                    self.bump();
                    self.expect(TokenKind::LParen)?;
                    let init = if self.peek() == &TokenKind::Semi {
                        None
                    } else {
                        Some(self.simple_stmt()?)
                    };
                    self.expect(TokenKind::Semi)?;
                    let cond = if self.peek() == &TokenKind::Semi {
                        Expr::Int(1)
                    } else {
                        self.expr()?
                    };
                    self.expect(TokenKind::Semi)?;
                    let step = if self.peek() == &TokenKind::RParen {
                        None
                    } else {
                        Some(self.simple_stmt()?)
                    };
                    self.expect(TokenKind::RParen)?;
                    let mut body = self.block()?;
                    if let Some(step) = step {
                        body.stmts.push(step);
                    }
                    let mut stmts = Vec::new();
                    if let Some(init) = init {
                        stmts.push(init);
                    }
                    stmts.push(Stmt::While(cond, body, span));
                    Ok(Stmt::Block(Block::new(stmts)))
                }
                "return" => {
                    self.bump();
                    let e = if self.peek() == &TokenKind::Semi {
                        None
                    } else {
                        Some(self.expr()?)
                    };
                    self.expect(TokenKind::Semi)?;
                    Ok(Stmt::Return(e, span))
                }
                "break" => {
                    self.bump();
                    self.expect(TokenKind::Semi)?;
                    Ok(Stmt::Break(span))
                }
                "continue" => {
                    self.bump();
                    self.expect(TokenKind::Semi)?;
                    Ok(Stmt::Continue(span))
                }
                "delayed_free" => {
                    self.bump();
                    let b = self.block()?;
                    Ok(Stmt::DelayedFreeScope(b, span))
                }
                "__check_nonnull" => {
                    self.bump();
                    self.expect(TokenKind::LParen)?;
                    let e = self.expr()?;
                    self.expect(TokenKind::RParen)?;
                    self.expect(TokenKind::Semi)?;
                    Ok(Stmt::Check(Check::NonNull(e), span))
                }
                "__check_nullterm" => {
                    self.bump();
                    self.expect(TokenKind::LParen)?;
                    let e = self.expr()?;
                    self.expect(TokenKind::RParen)?;
                    self.expect(TokenKind::Semi)?;
                    Ok(Stmt::Check(Check::NullTerm(e), span))
                }
                "__check_rc_free" => {
                    self.bump();
                    self.expect(TokenKind::LParen)?;
                    let e = self.expr()?;
                    self.expect(TokenKind::RParen)?;
                    self.expect(TokenKind::Semi)?;
                    Ok(Stmt::Check(Check::RcFreeOk(e), span))
                }
                "__check_bounds" => {
                    self.bump();
                    self.expect(TokenKind::LParen)?;
                    let ptr = self.expr()?;
                    self.expect(TokenKind::Comma)?;
                    let index = self.expr()?;
                    let len = if self.eat(&TokenKind::Comma) {
                        Some(self.expr()?)
                    } else {
                        None
                    };
                    self.expect(TokenKind::RParen)?;
                    self.expect(TokenKind::Semi)?;
                    Ok(Stmt::Check(Check::PtrBounds { ptr, index, len }, span))
                }
                "__check_union" => {
                    self.bump();
                    self.expect(TokenKind::LParen)?;
                    let obj = self.expr()?;
                    self.expect(TokenKind::Comma)?;
                    let field = self.expect_ident()?;
                    self.expect(TokenKind::Comma)?;
                    let tag = self.expect_ident()?;
                    self.expect(TokenKind::Comma)?;
                    let value = self.expect_int()?;
                    self.expect(TokenKind::RParen)?;
                    self.expect(TokenKind::Semi)?;
                    Ok(Stmt::Check(
                        Check::UnionTag {
                            obj,
                            field,
                            tag,
                            value,
                        },
                        span,
                    ))
                }
                "__assert_may_block" => {
                    self.bump();
                    self.expect(TokenKind::LParen)?;
                    let site = match self.peek().clone() {
                        TokenKind::Str(s) => {
                            self.bump();
                            s
                        }
                        _ => self.expect_ident()?,
                    };
                    self.expect(TokenKind::RParen)?;
                    self.expect(TokenKind::Semi)?;
                    Ok(Stmt::Check(Check::AssertMayBlock { site }, span))
                }
                _ => {
                    let s = self.simple_stmt()?;
                    self.expect(TokenKind::Semi)?;
                    Ok(s)
                }
            },
            _ => {
                let s = self.simple_stmt()?;
                self.expect(TokenKind::Semi)?;
                Ok(s)
            }
        }
    }

    /// An assignment or expression statement, without the trailing `;`
    /// (shared by ordinary statements and `for` headers).
    fn simple_stmt(&mut self) -> Result<Stmt> {
        let span = self.peek_span();
        let lhs = self.expr()?;
        if self.eat(&TokenKind::Assign) {
            let rhs = self.expr()?;
            if !lhs.is_lvalue() {
                return Err(CmirError::parse("left side of `=` is not an lvalue", span));
            }
            Ok(Stmt::Assign(lhs, rhs, span))
        } else {
            Ok(Stmt::Expr(lhs, span))
        }
    }

    // ----- expressions -----

    fn expr(&mut self) -> Result<Expr> {
        self.binary(0)
    }

    fn binary(&mut self, min_prec: u8) -> Result<Expr> {
        let mut lhs = self.cast_expr()?;
        loop {
            let Some((op, prec)) = self.peek_binop() else {
                return Ok(lhs);
            };
            if prec < min_prec {
                return Ok(lhs);
            }
            self.bump();
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn peek_binop(&self) -> Option<(BinOp, u8)> {
        Some(match self.peek() {
            TokenKind::OrOr => (BinOp::LOr, 1),
            TokenKind::AndAnd => (BinOp::LAnd, 2),
            TokenKind::Pipe => (BinOp::Or, 3),
            TokenKind::Caret => (BinOp::Xor, 4),
            TokenKind::Amp => (BinOp::And, 5),
            TokenKind::EqEq => (BinOp::Eq, 6),
            TokenKind::NotEq => (BinOp::Ne, 6),
            TokenKind::Lt => (BinOp::Lt, 7),
            TokenKind::Le => (BinOp::Le, 7),
            TokenKind::Gt => (BinOp::Gt, 7),
            TokenKind::Ge => (BinOp::Ge, 7),
            TokenKind::Shl => (BinOp::Shl, 8),
            TokenKind::Shr => (BinOp::Shr, 8),
            TokenKind::Plus => (BinOp::Add, 9),
            TokenKind::Minus => (BinOp::Sub, 9),
            TokenKind::Star => (BinOp::Mul, 10),
            TokenKind::Slash => (BinOp::Div, 10),
            TokenKind::Percent => (BinOp::Rem, 10),
            _ => return None,
        })
    }

    fn cast_expr(&mut self) -> Result<Expr> {
        let mut e = self.unary()?;
        while self.peek_ident() == Some("as") {
            self.bump();
            let t = self.ty()?;
            e = Expr::Cast(t, Box::new(e));
        }
        Ok(e)
    }

    fn unary(&mut self) -> Result<Expr> {
        match self.peek() {
            TokenKind::Minus => {
                self.bump();
                // Fold negation of literals so `-1` is a literal, matching
                // what the pretty printer emits.
                Ok(match self.unary()? {
                    Expr::Int(v) => Expr::Int(-v),
                    other => Expr::Unary(UnOp::Neg, Box::new(other)),
                })
            }
            TokenKind::Bang => {
                self.bump();
                Ok(Expr::Unary(UnOp::Not, Box::new(self.unary()?)))
            }
            TokenKind::Tilde => {
                self.bump();
                Ok(Expr::Unary(UnOp::BitNot, Box::new(self.unary()?)))
            }
            TokenKind::Star => {
                self.bump();
                Ok(Expr::Deref(Box::new(self.unary()?)))
            }
            TokenKind::Amp => {
                self.bump();
                Ok(Expr::AddrOf(Box::new(self.unary()?)))
            }
            _ => self.postfix(),
        }
    }

    fn postfix(&mut self) -> Result<Expr> {
        let mut e = self.primary()?;
        loop {
            match self.peek() {
                TokenKind::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.eat(&TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                        self.expect(TokenKind::RParen)?;
                    }
                    e = Expr::Call(Box::new(e), args);
                }
                TokenKind::LBracket => {
                    self.bump();
                    let i = self.expr()?;
                    self.expect(TokenKind::RBracket)?;
                    e = Expr::Index(Box::new(e), Box::new(i));
                }
                TokenKind::Dot => {
                    self.bump();
                    let f = self.expect_ident()?;
                    e = Expr::Field(Box::new(e), f);
                }
                TokenKind::Arrow => {
                    self.bump();
                    let f = self.expect_ident()?;
                    e = Expr::Arrow(Box::new(e), f);
                }
                _ => return Ok(e),
            }
        }
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::Str(s))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                self.bump();
                match name.as_str() {
                    "null" => Ok(Expr::Null),
                    "sizeof" => {
                        self.expect(TokenKind::LParen)?;
                        let t = self.ty()?;
                        self.expect(TokenKind::RParen)?;
                        Ok(Expr::SizeOf(t))
                    }
                    _ => Ok(Expr::Var(name)),
                }
            }
            other => Err(CmirError::parse(
                format!("expected expression, found {other}"),
                self.peek_span(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_expression_precedence() {
        let e = parse_expr("1 + 2 * 3 == 7 && x < 4").unwrap();
        // Expect: ((1 + (2*3)) == 7) && (x < 4)
        match e {
            Expr::Binary(BinOp::LAnd, l, _) => match *l {
                Expr::Binary(BinOp::Eq, ll, _) => match *ll {
                    Expr::Binary(BinOp::Add, _, r) => {
                        assert!(matches!(*r, Expr::Binary(BinOp::Mul, _, _)))
                    }
                    other => panic!("unexpected {other:?}"),
                },
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_postfix_chains() {
        let e = parse_expr("ops->read(buf, n)[0].field").unwrap();
        assert!(matches!(e, Expr::Field(..)));
    }

    #[test]
    fn parses_cast_and_sizeof() {
        let e = parse_expr("kmalloc(sizeof(struct inode), 0) as struct inode *").unwrap();
        match e {
            Expr::Cast(Type::Ptr(inner, _), _) => {
                assert_eq!(*inner, Type::Struct("inode".into()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_annotated_types() {
        let t = parse_type("u8 * count(len) nullterm nonnull").unwrap();
        let ann = t.ptr_annot().unwrap();
        assert_eq!(ann.bounds, Bounds::Count(BoundExpr::var("len")));
        assert!(ann.nullterm);
        assert!(ann.nonnull);

        let t2 = parse_type("i32 * bound(lo, hi + 4)").unwrap();
        assert!(matches!(t2.ptr_annot().unwrap().bounds, Bounds::Bound(..)));

        // Type suffixes after a `fnptr(...) -> T` bind to the return type;
        // use a typedef to name a function type before adding suffixes.
        let t3 = parse_type("fnptr(u32, u8 *) -> i32 *").unwrap();
        match t3 {
            Type::Func(ft) => assert!(ft.ret.is_ptr()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_struct_with_when() {
        let src = r#"
            struct icmp_packet {
                kind: u32;
                echo: u32 when(kind == 8);
                unreach_code: u32 when(kind == 3);
            }
        "#;
        let p = parse_program(src).unwrap();
        let c = p.composite("icmp_packet").unwrap();
        assert_eq!(c.fields.len(), 3);
        assert_eq!(c.fields[1].when, Some(("kind".into(), 8)));
    }

    #[test]
    fn parses_function_with_attributes() {
        let src = r#"
            #[blocking] #[allocator] #[subsystem("mm")]
            fn kmalloc(size: u32, flags: u32) -> void * {
                return null;
            }
            #[blocking_if(flags)]
            extern fn __alloc_pages(flags: u32) -> void *;
            #[error_codes(-12, -22)]
            fn do_mmap(len: u32) -> i32 {
                if (len == 0) { return -22; }
                return 0;
            }
        "#;
        let p = parse_program(src).unwrap();
        let km = p.function("kmalloc").unwrap();
        assert!(km.attrs.blocking && km.attrs.allocator);
        assert_eq!(km.subsystem, "mm");
        assert!(p.function("__alloc_pages").unwrap().body.is_none());
        assert_eq!(
            p.function("__alloc_pages").unwrap().attrs.blocking_if_flag,
            Some("flags".into())
        );
        assert_eq!(
            p.function("do_mmap").unwrap().attrs.error_codes,
            vec![-12, -22]
        );
    }

    #[test]
    fn parses_statements_and_for_desugar() {
        let src = r#"
            fn sum(buf: u32 * count(n), n: u32) -> u32 {
                let total: u32 = 0;
                for (let i: u32 = 0; i < n; i = i + 1) {
                    total = total + buf[i];
                }
                return total;
            }
        "#;
        // `for` headers with `let` are not supported; use an assignment.
        assert!(parse_program(src).is_err());
        let src2 = r#"
            fn sum(buf: u32 * count(n), n: u32) -> u32 {
                let total: u32 = 0;
                let i: u32 = 0;
                for (i = 0; i < n; i = i + 1) {
                    total = total + buf[i];
                }
                return total;
            }
        "#;
        let p = parse_program(src2).unwrap();
        let f = p.function("sum").unwrap();
        // The for loop desugars into a block containing a while.
        let body = f.body.as_ref().unwrap();
        assert!(body.stmts.iter().any(|s| matches!(s, Stmt::Block(b) if b
            .stmts
            .iter()
            .any(|s| matches!(s, Stmt::While(..))))));
    }

    #[test]
    fn parses_checks_and_delayed_free() {
        let src = r#"
            fn f(p: u8 * count(n), n: u32) {
                __check_nonnull(p);
                __check_bounds(p, 0, n);
                __assert_may_block("read_chan");
                delayed_free {
                    kfree(p);
                }
            }
        "#;
        let p = parse_program(src).unwrap();
        let f = p.function("f").unwrap();
        let b = f.body.as_ref().unwrap();
        assert!(matches!(b.stmts[0], Stmt::Check(Check::NonNull(_), _)));
        assert!(matches!(
            b.stmts[1],
            Stmt::Check(Check::PtrBounds { .. }, _)
        ));
        assert!(matches!(
            b.stmts[2],
            Stmt::Check(Check::AssertMayBlock { .. }, _)
        ));
        assert!(matches!(b.stmts[3], Stmt::DelayedFreeScope(..)));
    }

    #[test]
    fn parses_globals_and_typedefs() {
        let src = r#"
            typedef size_t = u32;
            typedef irq_fn = fnptr(u32) -> i32;
            global jiffies: u64 = 0;
            global table: irq_fn[8];
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.typedefs.len(), 2);
        assert_eq!(p.globals.len(), 2);
        assert!(matches!(
            p.global("table").unwrap().decl.ty,
            Type::Array(..)
        ));
    }

    #[test]
    fn rejects_bad_syntax() {
        assert!(parse_program("fn f( { }").is_err());
        assert!(parse_program("struct S { x u32; }").is_err());
        assert!(parse_expr("1 +").is_err());
        assert!(parse_program("fn f() { 1 + 2 = 3; }").is_err());
        assert!(parse_program("#[made_up] fn f() { }").is_err());
    }

    #[test]
    fn else_if_chains() {
        let src = r#"
            fn classify(x: i32) -> i32 {
                if (x < 0) { return -1; }
                else if (x == 0) { return 0; }
                else { return 1; }
            }
        "#;
        let p = parse_program(src).unwrap();
        assert!(p.function("classify").is_some());
    }
}
