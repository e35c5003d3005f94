//! Fluent builders for constructing KC programs programmatically.
//!
//! The synthetic kernel corpus (`ivy-kernelgen`) builds hundreds of functions;
//! these builders keep that code compact and readable. Everything produced
//! here is ordinary AST — the same structures the parser yields.

use crate::ast::{Block, Expr, FuncAttrs, Function, GlobalDef, Program, Stmt, VarDecl};
use crate::types::{BoundExpr, CompositeDef, Field, Type};
use std::sync::Arc;

/// Builder for a [`Function`].
#[derive(Debug, Clone)]
pub struct FnBuilder {
    name: String,
    params: Vec<VarDecl>,
    ret: Type,
    body: Vec<Stmt>,
    attrs: FuncAttrs,
    subsystem: String,
}

impl FnBuilder {
    /// Starts a new function with `void` return type in the `kernel`
    /// subsystem.
    pub fn new(name: impl Into<String>) -> Self {
        FnBuilder {
            name: name.into(),
            params: Vec::new(),
            ret: Type::Void,
            body: Vec::new(),
            attrs: FuncAttrs::default(),
            subsystem: "kernel".to_string(),
        }
    }

    /// Adds a parameter.
    pub fn param(mut self, name: impl Into<String>, ty: Type) -> Self {
        self.params.push(VarDecl::new(name, ty));
        self
    }

    /// Sets the return type.
    pub fn ret(mut self, ty: Type) -> Self {
        self.ret = ty;
        self
    }

    /// Sets the subsystem label.
    pub fn subsystem(mut self, s: impl Into<String>) -> Self {
        self.subsystem = s.into();
        self
    }

    /// Marks the function as blocking.
    pub fn blocking(mut self) -> Self {
        self.attrs.blocking = true;
        self
    }

    /// Marks the function as blocking when the named flag argument carries
    /// `GFP_WAIT`.
    pub fn blocking_if(mut self, flag: impl Into<String>) -> Self {
        self.attrs.blocking_if_flag = Some(flag.into());
        self
    }

    /// Marks the function as an interrupt handler.
    pub fn irq_handler(mut self) -> Self {
        self.attrs.interrupt_handler = true;
        self
    }

    /// Marks the whole function as trusted.
    pub fn trusted(mut self) -> Self {
        self.attrs.trusted = true;
        self
    }

    /// Marks the function as containing inline assembly.
    pub fn inline_asm(mut self) -> Self {
        self.attrs.inline_asm = true;
        self
    }

    /// Marks the function as an allocator.
    pub fn allocator(mut self) -> Self {
        self.attrs.allocator = true;
        self
    }

    /// Marks the function as a deallocator.
    pub fn deallocator(mut self) -> Self {
        self.attrs.deallocator = true;
        self
    }

    /// Marks the function as disabling interrupts for its duration.
    pub fn disables_irq(mut self) -> Self {
        self.attrs.disables_irq = true;
        self
    }

    /// Records that the function acquires the named lock.
    pub fn acquires(mut self, lock: impl Into<String>) -> Self {
        self.attrs.acquires.push(lock.into());
        self
    }

    /// Records that the function releases the named lock.
    pub fn releases(mut self, lock: impl Into<String>) -> Self {
        self.attrs.releases.push(lock.into());
        self
    }

    /// Records the error codes the function may return.
    pub fn error_codes(mut self, codes: &[i64]) -> Self {
        self.attrs.error_codes.extend_from_slice(codes);
        self
    }

    /// Appends one statement to the body.
    pub fn stmt(mut self, s: Stmt) -> Self {
        self.body.push(s);
        self
    }

    /// Appends several statements to the body.
    pub fn stmts(mut self, s: Vec<Stmt>) -> Self {
        self.body.extend(s);
        self
    }

    /// Replaces the whole body.
    pub fn body(mut self, s: Vec<Stmt>) -> Self {
        self.body = s;
        self
    }

    /// Finishes the function (with a body).
    pub fn build(self) -> Function {
        Function {
            name: self.name,
            params: self.params,
            ret: self.ret,
            body: Some(Block::new(self.body)),
            attrs: self.attrs,
            subsystem: self.subsystem,
            span: crate::span::Span::synthetic(),
        }
    }

    /// Finishes the function as an extern declaration (drops any body).
    pub fn build_extern(self) -> Function {
        Function {
            name: self.name,
            params: self.params,
            ret: self.ret,
            body: None,
            attrs: self.attrs,
            subsystem: self.subsystem,
            span: crate::span::Span::synthetic(),
        }
    }
}

/// Builder for a whole [`Program`] (one synthetic "source file" / module).
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    program: Program,
}

impl ProgramBuilder {
    /// Starts an empty program.
    pub fn new() -> Self {
        ProgramBuilder {
            program: Program::new(),
        }
    }

    /// Adds a struct definition.
    pub fn strukt(mut self, name: impl Into<String>, fields: Vec<Field>) -> Self {
        self.program
            .add_composite(CompositeDef::strukt(name, fields));
        self
    }

    /// Adds a union definition.
    pub fn union(mut self, name: impl Into<String>, fields: Vec<Field>) -> Self {
        self.program
            .add_composite(CompositeDef::union(name, fields));
        self
    }

    /// Adds a typedef.
    pub fn typedef(mut self, name: impl Into<String>, ty: Type) -> Self {
        Arc::make_mut(&mut self.program.typedefs).push((name.into(), ty));
        self
    }

    /// Adds a global variable.
    pub fn global(mut self, name: impl Into<String>, ty: Type, init: Option<Expr>) -> Self {
        Arc::make_mut(&mut self.program.globals).push(GlobalDef::new(name, ty, init));
        self
    }

    /// Adds a function.
    pub fn func(mut self, f: Function) -> Self {
        self.program.add_function(f);
        self
    }

    /// Adds every function from an iterator.
    pub fn funcs(mut self, fs: impl IntoIterator<Item = Function>) -> Self {
        for f in fs {
            self.program.add_function(f);
        }
        self
    }

    /// Finishes the program.
    pub fn build(self) -> Program {
        self.program
    }
}

/// Shorthand helpers used pervasively by the corpus generator.
pub mod dsl {
    use super::*;

    /// `let name: ty = init;`
    pub fn decl(name: &str, ty: Type, init: Expr) -> Stmt {
        Stmt::local(name, ty, Some(init))
    }

    /// `let name: ty;`
    pub fn decl_uninit(name: &str, ty: Type) -> Stmt {
        Stmt::local(name, ty, None)
    }

    /// `lhs = rhs;`
    pub fn assign(lhs: Expr, rhs: Expr) -> Stmt {
        Stmt::assign(lhs, rhs)
    }

    /// `name(args...);` as a statement.
    pub fn call_stmt(name: &str, args: Vec<Expr>) -> Stmt {
        Stmt::expr(Expr::call(name, args))
    }

    /// `name(args...)` as an expression.
    pub fn call(name: &str, args: Vec<Expr>) -> Expr {
        Expr::call(name, args)
    }

    /// Variable reference.
    pub fn v(name: &str) -> Expr {
        Expr::var(name)
    }

    /// Integer literal.
    pub fn n(value: i64) -> Expr {
        Expr::int(value)
    }

    /// `count(var)` pointer to `ty`.
    pub fn ptr_count(ty: Type, var: &str) -> Type {
        Type::ptr_count(ty, BoundExpr::var(var))
    }

    /// Classic counted loop: `let i = 0; while (i < limit) { body; i = i + 1; }`.
    pub fn count_loop(i: &str, limit: Expr, body: Vec<Stmt>) -> Vec<Stmt> {
        let mut loop_body = body;
        loop_body.push(Stmt::assign(v(i), Expr::add(v(i), n(1))));
        vec![
            Stmt::local(i, Type::u32(), Some(n(0))),
            Stmt::while_loop(Expr::lt(v(i), limit), loop_body),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::dsl::*;
    use super::*;
    use crate::pretty::pretty_program;
    use crate::typecheck::validate_program;

    #[test]
    fn builder_produces_valid_program() {
        let memcpy = FnBuilder::new("memcpy_kc")
            .param("dst", ptr_count(Type::u8(), "len"))
            .param("src", ptr_count(Type::u8(), "len"))
            .param("len", Type::u32())
            .subsystem("lib")
            .stmts(count_loop(
                "i",
                v("len"),
                vec![assign(
                    Expr::index(v("dst"), v("i")),
                    Expr::index(v("src"), v("i")),
                )],
            ))
            .build();
        let kmalloc = FnBuilder::new("kmalloc")
            .param("size", Type::u32())
            .param("flags", Type::u32())
            .ret(Type::ptr(Type::Void))
            .allocator()
            .blocking_if("flags")
            .stmt(Stmt::ret(Expr::Null))
            .build();
        let p = ProgramBuilder::new()
            .global("jiffies", Type::u64(), Some(n(0)))
            .func(memcpy)
            .func(kmalloc)
            .build();
        let v = validate_program(&p);
        assert!(v.is_ok(), "{:?}", v.errors);
        // And the pretty-printed output must re-parse.
        let printed = pretty_program(&p);
        let reparsed = crate::parser::parse_program(&printed).unwrap();
        assert_eq!(reparsed.functions.len(), 2);
        assert!(reparsed.function("kmalloc").unwrap().attrs.allocator);
    }

    #[test]
    fn builder_extern_has_no_body() {
        let f = FnBuilder::new("panic")
            .param("msg", Type::ptr(Type::u8()))
            .build_extern();
        assert!(f.body.is_none());
    }

    #[test]
    fn count_loop_shape() {
        let stmts = count_loop("i", n(8), vec![call_stmt("touch", vec![v("i")])]);
        assert_eq!(stmts.len(), 2);
        assert!(matches!(stmts[1], Stmt::While(..)));
    }
}
