//! Abstract syntax for KC programs.
//!
//! The AST is the common currency of the whole workspace: the parser and the
//! builder API produce it, the analyses (`ivy-analysis`, `ivy-deputy`,
//! `ivy-ccount`, `ivy-blockstop`) read and rewrite it, and the VM executes it.
//!
//! Two node kinds exist purely for the tools: [`Stmt::Check`] carries an
//! inserted run-time check (erased by `ivy-deputy::erase`), and
//! [`Stmt::DelayedFreeScope`] marks a CCount delayed-free region.

pub use crate::functions::Functions;
pub use crate::globals::Globals;
use crate::span::Span;
use crate::types::{BoundExpr, CompositeDef, Type};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
    /// Bitwise complement.
    BitNot,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    /// Addition (also pointer arithmetic when the left operand is a pointer).
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (traps on divide-by-zero in the VM).
    Div,
    /// Remainder.
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift.
    Shl,
    /// Logical/arithmetic right shift (by signedness of the left operand).
    Shr,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less than.
    Lt,
    /// Less or equal.
    Le,
    /// Greater than.
    Gt,
    /// Greater or equal.
    Ge,
    /// Short-circuit logical and.
    LAnd,
    /// Short-circuit logical or.
    LOr,
}

impl BinOp {
    /// True for the comparison operators (result is 0/1).
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// True for the short-circuit logical operators.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::LAnd | BinOp::LOr)
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// String literal (decays to a nullterm `u8` pointer into rodata).
    Str(String),
    /// The null pointer constant.
    Null,
    /// Reference to a variable (local, parameter, global, or function name).
    Var(String),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Pointer dereference `*e`.
    Deref(Box<Expr>),
    /// Address-of `&e` (the operand must be an lvalue).
    AddrOf(Box<Expr>),
    /// Array/pointer indexing `e[i]`.
    Index(Box<Expr>, Box<Expr>),
    /// Struct field access `e.f`.
    Field(Box<Expr>, String),
    /// Pointer field access `e->f`.
    Arrow(Box<Expr>, String),
    /// Type cast `(T) e`.
    Cast(Type, Box<Expr>),
    /// Function call. The callee is an expression so calls through function
    /// pointers (`ops->read(...)`) are first-class; BlockStop's points-to
    /// analysis resolves them.
    Call(Box<Expr>, Vec<Expr>),
    /// `sizeof(T)`.
    SizeOf(Type),
}

// `add`/`sub`/`mul` are AST constructors, not arithmetic on `Expr` values;
// implementing `std::ops` here would be misleading.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Integer literal helper.
    pub fn int(v: i64) -> Expr {
        Expr::Int(v)
    }

    /// Variable reference helper.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Direct call helper: `name(args...)`.
    pub fn call(name: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Call(Box::new(Expr::Var(name.into())), args)
    }

    /// Binary operation helper.
    pub fn bin(op: BinOp, a: Expr, b: Expr) -> Expr {
        Expr::Binary(op, Box::new(a), Box::new(b))
    }

    /// `a + b`.
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Add, a, b)
    }

    /// `a - b`.
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Sub, a, b)
    }

    /// `a * b`.
    pub fn mul(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Mul, a, b)
    }

    /// `a < b`.
    pub fn lt(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Lt, a, b)
    }

    /// `a == b`.
    pub fn eq(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Eq, a, b)
    }

    /// `a != b`.
    pub fn ne(a: Expr, b: Expr) -> Expr {
        Expr::bin(BinOp::Ne, a, b)
    }

    /// `e[i]`.
    pub fn index(e: Expr, i: Expr) -> Expr {
        Expr::Index(Box::new(e), Box::new(i))
    }

    /// `e->f`.
    pub fn arrow(e: Expr, f: impl Into<String>) -> Expr {
        Expr::Arrow(Box::new(e), f.into())
    }

    /// `e.f`.
    pub fn field(e: Expr, f: impl Into<String>) -> Expr {
        Expr::Field(Box::new(e), f.into())
    }

    /// `*e`.
    pub fn deref(e: Expr) -> Expr {
        Expr::Deref(Box::new(e))
    }

    /// `&e`.
    pub fn addr_of(e: Expr) -> Expr {
        Expr::AddrOf(Box::new(e))
    }

    /// `(t) e`.
    pub fn cast(t: Type, e: Expr) -> Expr {
        Expr::Cast(t, Box::new(e))
    }

    /// True if the expression is a syntactic lvalue.
    pub fn is_lvalue(&self) -> bool {
        matches!(
            self,
            Expr::Var(_) | Expr::Deref(_) | Expr::Index(..) | Expr::Field(..) | Expr::Arrow(..)
        )
    }

    /// Converts this expression into a [`BoundExpr`] if it lies in the
    /// restricted annotation language (constants, variables, `+`, `-`, `*`).
    pub fn to_bound_expr(&self) -> Option<BoundExpr> {
        match self {
            Expr::Int(v) => Some(BoundExpr::Const(*v)),
            Expr::Var(v) => Some(BoundExpr::Var(v.clone())),
            Expr::Binary(BinOp::Add, a, b) => Some(BoundExpr::Add(
                Box::new(a.to_bound_expr()?),
                Box::new(b.to_bound_expr()?),
            )),
            Expr::Binary(BinOp::Sub, a, b) => Some(BoundExpr::Sub(
                Box::new(a.to_bound_expr()?),
                Box::new(b.to_bound_expr()?),
            )),
            Expr::Binary(BinOp::Mul, a, b) => Some(BoundExpr::Mul(
                Box::new(a.to_bound_expr()?),
                Box::new(b.to_bound_expr()?),
            )),
            _ => None,
        }
    }

    /// Collects every variable name read by this expression.
    pub fn vars_read(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Var(v) => {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            Expr::Unary(_, e) | Expr::Deref(e) | Expr::AddrOf(e) | Expr::Cast(_, e) => {
                e.collect_vars(out)
            }
            Expr::Field(e, _) | Expr::Arrow(e, _) => e.collect_vars(out),
            Expr::Binary(_, a, b) | Expr::Index(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Call(callee, args) => {
                callee.collect_vars(out);
                for a in args {
                    a.collect_vars(out);
                }
            }
            Expr::Int(_) | Expr::Str(_) | Expr::Null | Expr::SizeOf(_) => {}
        }
    }

    /// Collects every direct callee name and every call made through a
    /// non-trivial callee expression (function pointer).
    pub fn calls(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        self.collect_calls(&mut out);
        out
    }

    fn collect_calls<'a>(&'a self, out: &mut Vec<&'a Expr>) {
        if let Expr::Call(callee, args) = self {
            out.push(self);
            callee.collect_calls(out);
            for a in args {
                a.collect_calls(out);
            }
            return;
        }
        match self {
            Expr::Unary(_, e) | Expr::Deref(e) | Expr::AddrOf(e) | Expr::Cast(_, e) => {
                e.collect_calls(out)
            }
            Expr::Field(e, _) | Expr::Arrow(e, _) => e.collect_calls(out),
            Expr::Binary(_, a, b) | Expr::Index(a, b) => {
                a.collect_calls(out);
                b.collect_calls(out);
            }
            _ => {}
        }
    }
}

/// A run-time check inserted by one of the analysis tools.
///
/// Checks are observationally pure except that a failed check traps (in the
/// paper: prints a warning / panics). The erasure pass removes them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Check {
    /// The pointer must not be null.
    NonNull(Expr),
    /// The access `ptr[index]` must be within `len` elements.
    ///
    /// `len` is the Deputy bound expression lowered into the local
    /// environment; when it is `None`, the VM validates against the extent of
    /// the underlying allocation (Deputy's `auto` bounds).
    PtrBounds {
        /// The pointer being accessed.
        ptr: Expr,
        /// The element index of the access.
        index: Expr,
        /// Static bound, when one is available from annotations.
        len: Option<Expr>,
    },
    /// The union arm `field` of `obj` may only be read when its `when` tag
    /// matches.
    UnionTag {
        /// The union-typed lvalue.
        obj: Expr,
        /// The arm being accessed.
        field: String,
        /// The tag field name.
        tag: String,
        /// The tag value that makes the arm valid.
        value: i64,
    },
    /// The null-terminated sequence starting at the pointer must contain a
    /// terminator within its bounds before being traversed.
    NullTerm(Expr),
    /// BlockStop runtime assertion: interrupts must be enabled here.
    ///
    /// Matches the paper's "special function that panics if interrupts are
    /// disabled", inserted to silence false positives.
    AssertMayBlock {
        /// The function the assertion protects (e.g. `read_chan`).
        site: String,
    },
    /// CCount free-safety check: the refcount of the object must be exactly
    /// the references held by the freer.
    RcFreeOk(Expr),
}

impl Check {
    /// A short stable mnemonic for reports and cost accounting.
    pub fn kind(&self) -> &'static str {
        match self {
            Check::NonNull(_) => "nonnull",
            Check::PtrBounds { .. } => "bounds",
            Check::UnionTag { .. } => "union_tag",
            Check::NullTerm(_) => "nullterm",
            Check::AssertMayBlock { .. } => "assert_may_block",
            Check::RcFreeOk(_) => "rc_free_ok",
        }
    }
}

/// A declared variable (parameter, local, or global).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VarDecl {
    /// Variable name.
    pub name: String,
    /// Declared type (with annotations, if any).
    pub ty: Type,
    /// Source span of the declaration.
    pub span: Span,
}

impl VarDecl {
    /// Creates a declaration with a synthetic span.
    pub fn new(name: impl Into<String>, ty: Type) -> Self {
        VarDecl {
            name: name.into(),
            ty,
            span: Span::synthetic(),
        }
    }
}

/// A block: a sequence of statements.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

impl Block {
    /// Creates a block from statements.
    pub fn new(stmts: Vec<Stmt>) -> Self {
        Block { stmts }
    }

    /// An empty block.
    pub fn empty() -> Self {
        Block { stmts: Vec::new() }
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Stmt {
    /// Evaluate an expression for its side effects (usually a call).
    Expr(Expr, Span),
    /// `lhs = rhs;` — the only mutation primitive; CCount instruments these.
    Assign(Expr, Expr, Span),
    /// Local variable declaration with optional initializer.
    Local(VarDecl, Option<Expr>),
    /// `if (cond) { then } else { els }`.
    If(Expr, Block, Option<Block>, Span),
    /// `while (cond) { body }`.
    While(Expr, Block, Span),
    /// `return e;` / `return;`.
    Return(Option<Expr>, Span),
    /// `break;`
    Break(Span),
    /// `continue;`
    Continue(Span),
    /// A nested block scope.
    Block(Block),
    /// A run-time check inserted by a tool (erasable).
    Check(Check, Span),
    /// A CCount delayed-free scope: frees inside are deferred (and their
    /// refcount checks re-run) at the end of the scope.
    DelayedFreeScope(Block, Span),
}

impl Stmt {
    /// Expression-statement helper.
    pub fn expr(e: Expr) -> Stmt {
        Stmt::Expr(e, Span::synthetic())
    }

    /// Assignment helper.
    pub fn assign(lhs: Expr, rhs: Expr) -> Stmt {
        Stmt::Assign(lhs, rhs, Span::synthetic())
    }

    /// Local-declaration helper.
    pub fn local(name: impl Into<String>, ty: Type, init: Option<Expr>) -> Stmt {
        Stmt::Local(VarDecl::new(name, ty), init)
    }

    /// `if` helper without an else branch.
    pub fn if_then(cond: Expr, then: Vec<Stmt>) -> Stmt {
        Stmt::If(cond, Block::new(then), None, Span::synthetic())
    }

    /// `if`/`else` helper.
    pub fn if_else(cond: Expr, then: Vec<Stmt>, els: Vec<Stmt>) -> Stmt {
        Stmt::If(
            cond,
            Block::new(then),
            Some(Block::new(els)),
            Span::synthetic(),
        )
    }

    /// `while` helper.
    pub fn while_loop(cond: Expr, body: Vec<Stmt>) -> Stmt {
        Stmt::While(cond, Block::new(body), Span::synthetic())
    }

    /// `return e;` helper.
    pub fn ret(e: Expr) -> Stmt {
        Stmt::Return(Some(e), Span::synthetic())
    }

    /// `return;` helper.
    pub fn ret_void() -> Stmt {
        Stmt::Return(None, Span::synthetic())
    }

    /// The primary span of the statement, if it has one.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Expr(_, s)
            | Stmt::Assign(_, _, s)
            | Stmt::If(_, _, _, s)
            | Stmt::While(_, _, s)
            | Stmt::Return(_, s)
            | Stmt::Break(s)
            | Stmt::Continue(s)
            | Stmt::Check(_, s)
            | Stmt::DelayedFreeScope(_, s) => *s,
            Stmt::Local(d, _) => d.span,
            Stmt::Block(_) => Span::synthetic(),
        }
    }
}

/// Function-level attributes.
///
/// These correspond to the paper's seed annotations (`blocking`, allocator
/// GFP behaviour, interrupt handlers) plus the escape hatch (`trusted`) and
/// the soundness caveat for inline assembly.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct FuncAttrs {
    /// The function may block (sleep). Seed annotation for BlockStop.
    pub blocking: bool,
    /// The function may block only when the named flag parameter has the
    /// `GFP_WAIT` bit set (the paper's `kmalloc` special case).
    pub blocking_if_flag: Option<String>,
    /// The function is an interrupt handler (runs with interrupts disabled).
    pub interrupt_handler: bool,
    /// The whole function body is trusted (excluded from Deputy checking but
    /// counted in the trusted-lines statistic).
    pub trusted: bool,
    /// The function contains inline assembly; call edges out of it are not
    /// visible to the call-graph construction (soundness caveat from §2.3).
    pub inline_asm: bool,
    /// The function is an allocator (returns fresh memory); used by CCount
    /// and by Deputy's bounds reasoning for allocation sites.
    pub allocator: bool,
    /// The function frees its pointer argument; used by CCount.
    pub deallocator: bool,
    /// Names of spinlocks this function acquires (for the lockcheck
    /// extension analysis).
    pub acquires: Vec<String>,
    /// Names of spinlocks this function releases.
    pub releases: Vec<String>,
    /// Set of error codes this function may return (for errcheck).
    pub error_codes: Vec<i64>,
    /// The function disables interrupts for the duration of its body
    /// (e.g. `spin_lock_irqsave` wrappers).
    pub disables_irq: bool,
}

impl FuncAttrs {
    /// True if any attribute is set (counts as an annotated declaration).
    pub fn is_annotated(&self) -> bool {
        self.blocking
            || self.blocking_if_flag.is_some()
            || self.interrupt_handler
            || self.trusted
            || self.inline_asm
            || self.allocator
            || self.deallocator
            || !self.acquires.is_empty()
            || !self.releases.is_empty()
            || !self.error_codes.is_empty()
            || self.disables_irq
    }
}

/// A function definition or declaration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Function {
    /// Function name (globally unique).
    pub name: String,
    /// Parameters in order.
    pub params: Vec<VarDecl>,
    /// Return type.
    pub ret: Type,
    /// Body; `None` for extern declarations and VM builtins.
    pub body: Option<Block>,
    /// Function attributes.
    pub attrs: FuncAttrs,
    /// The subsystem ("kernel", "mm", "fs/ext2", "net/ipv4", "drivers/...")
    /// this function belongs to; used by per-subsystem statistics.
    pub subsystem: String,
    /// Source span of the whole definition.
    pub span: Span,
}

impl Function {
    /// Creates a function definition with a body.
    pub fn new(name: impl Into<String>, params: Vec<VarDecl>, ret: Type, body: Vec<Stmt>) -> Self {
        Function {
            name: name.into(),
            params,
            ret,
            body: Some(Block::new(body)),
            attrs: FuncAttrs::default(),
            subsystem: "kernel".to_string(),
            span: Span::synthetic(),
        }
    }

    /// Creates an extern declaration (no body).
    pub fn extern_decl(name: impl Into<String>, params: Vec<VarDecl>, ret: Type) -> Self {
        Function {
            name: name.into(),
            params,
            ret,
            body: None,
            attrs: FuncAttrs::default(),
            subsystem: "extern".to_string(),
            span: Span::synthetic(),
        }
    }

    /// The function's type as a [`FuncType`] (for function-pointer matching).
    pub fn func_type(&self) -> crate::types::FuncType {
        crate::types::FuncType {
            params: self.params.iter().map(|p| p.ty.clone()).collect(),
            ret: self.ret.clone(),
        }
    }

    /// True if the declaration or any parameter type carries annotations.
    pub fn is_annotated(&self) -> bool {
        self.attrs.is_annotated()
            || self.ret.is_annotated()
            || self.params.iter().any(|p| p.ty.is_annotated())
    }
}

/// A global variable definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GlobalDef {
    /// Declaration (name and type).
    pub decl: VarDecl,
    /// Optional constant initializer.
    pub init: Option<Expr>,
}

impl GlobalDef {
    /// Creates a global definition.
    pub fn new(name: impl Into<String>, ty: Type, init: Option<Expr>) -> Self {
        GlobalDef {
            decl: VarDecl::new(name, ty),
            init,
        }
    }
}

/// A complete KC translation unit (whole program, in the paper's terms the
/// whole stripped-down kernel).
///
/// Every item is shared: the functions one by one (see [`Functions`]) and
/// the composites, typedefs and globals as one `Arc`'d list each (see
/// [`Globals`] for the globals' name index). Cloning
/// a program copies pointers, and a write clones only what it touches
/// (through [`Arc::make_mut`] for the lists), so program states that
/// differ in one function share everything else.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Program {
    /// Struct and union definitions.
    pub composites: Arc<Vec<CompositeDef>>,
    /// Typedefs: name → underlying type.
    pub typedefs: Arc<Vec<(String, Type)>>,
    /// Global variables, with a name index.
    pub globals: Globals,
    /// Functions (definitions and extern declarations).
    pub functions: Functions,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Looks up a function by name (the first definition of the name).
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.get_arc(name).map(|f| &**f)
    }

    /// Looks up a function by name, mutably (the first definition of the
    /// name, unshared first).
    pub fn function_mut(&mut self, name: &str) -> Option<&mut Function> {
        let index = self.functions.position(name)?;
        Some(&mut self.functions[index])
    }

    /// Looks up a struct or union definition by name.
    pub fn composite(&self, name: &str) -> Option<&CompositeDef> {
        self.composites.iter().find(|c| c.name == name)
    }

    /// Looks up a global by name (the first definition of the name),
    /// through the globals' name index.
    pub fn global(&self, name: &str) -> Option<&GlobalDef> {
        self.globals.get(name)
    }

    /// Resolves typedefs until a non-`Named` type is reached.
    ///
    /// Unknown names resolve to themselves so callers can report the error at
    /// a better location.
    pub fn resolve_type<'a>(&'a self, ty: &'a Type) -> &'a Type {
        let mut t = ty;
        let mut depth = 0;
        while let Type::Named(n) = t {
            match self.typedefs.iter().find(|(name, _)| name == n) {
                Some((_, under)) if depth < 32 => {
                    t = under;
                    depth += 1;
                }
                _ => break,
            }
        }
        t
    }

    /// Names of all functions that have bodies.
    pub fn defined_functions(&self) -> impl Iterator<Item = &Function> {
        self.functions.iter().filter(|f| f.body.is_some())
    }

    /// Adds a function, replacing the first existing one with the same
    /// name.
    pub fn add_function(&mut self, f: Function) {
        match self.functions.position(&f.name) {
            Some(index) => self.functions.set(index, Arc::new(f)),
            None => self.functions.push(f),
        }
    }

    /// Adds a composite definition, replacing any existing one with the same name.
    pub fn add_composite(&mut self, c: CompositeDef) {
        let composites = Arc::make_mut(&mut self.composites);
        if let Some(existing) = composites.iter_mut().find(|g| g.name == c.name) {
            *existing = c;
        } else {
            composites.push(c);
        }
    }

    /// Merges another program into this one (later definitions win).
    ///
    /// This models the paper's file-at-a-time incremental conversion: each
    /// converted "file" (module) can be re-linked into the kernel image.
    pub fn link(&mut self, other: Program) {
        for c in Arc::unwrap_or_clone(other.composites) {
            self.add_composite(c);
        }
        for (name, ty) in Arc::unwrap_or_clone(other.typedefs) {
            let typedefs = Arc::make_mut(&mut self.typedefs);
            if let Some(existing) = typedefs.iter_mut().find(|(n, _)| *n == name) {
                existing.1 = ty;
            } else {
                typedefs.push((name, ty));
            }
        }
        for g in other.globals.iter().cloned() {
            let globals = Arc::make_mut(&mut self.globals);
            if let Some(existing) = globals.iter_mut().find(|e| e.decl.name == g.decl.name) {
                *existing = g;
            } else {
                globals.push(g);
            }
        }
        for f in other.functions {
            self.add_function(f);
        }
    }

    /// Returns a pointer-annotation-free copy of the whole program, with all
    /// inserted checks removed (full erasure, per the paper's erasure
    /// semantics). Function attributes are preserved: they are declarative
    /// and already ignored by a traditional build.
    pub fn erased(&self) -> Program {
        crate::visit::erase_program(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::IntKind;

    fn sample_fn() -> Function {
        Function::new(
            "memcpy_kc",
            vec![
                VarDecl::new("dst", Type::ptr_count(Type::u8(), BoundExpr::var("n"))),
                VarDecl::new("src", Type::ptr_count(Type::u8(), BoundExpr::var("n"))),
                VarDecl::new("n", Type::u32()),
            ],
            Type::Void,
            vec![
                Stmt::local("i", Type::u32(), Some(Expr::int(0))),
                Stmt::while_loop(
                    Expr::lt(Expr::var("i"), Expr::var("n")),
                    vec![
                        Stmt::assign(
                            Expr::index(Expr::var("dst"), Expr::var("i")),
                            Expr::index(Expr::var("src"), Expr::var("i")),
                        ),
                        Stmt::assign(Expr::var("i"), Expr::add(Expr::var("i"), Expr::int(1))),
                    ],
                ),
                Stmt::ret_void(),
            ],
        )
    }

    #[test]
    fn function_annotation_detection() {
        let f = sample_fn();
        assert!(f.is_annotated());
        let mut plain = f.clone();
        for p in &mut plain.params {
            p.ty = p.ty.erased();
        }
        assert!(!plain.is_annotated());
    }

    #[test]
    fn expr_vars_read() {
        let e = Expr::add(
            Expr::var("a"),
            Expr::index(Expr::var("buf"), Expr::var("a")),
        );
        assert_eq!(e.vars_read(), vec!["a".to_string(), "buf".to_string()]);
    }

    #[test]
    fn expr_calls_nested() {
        let e = Expr::call("outer", vec![Expr::call("inner", vec![Expr::int(1)])]);
        let calls = e.calls();
        assert_eq!(calls.len(), 2);
    }

    #[test]
    fn to_bound_expr_restricted() {
        let ok = Expr::add(Expr::var("n"), Expr::int(1));
        assert!(ok.to_bound_expr().is_some());
        let not_ok = Expr::call("f", vec![]);
        assert!(not_ok.to_bound_expr().is_none());
    }

    #[test]
    fn program_link_replaces_and_adds() {
        let mut p = Program::new();
        p.add_function(Function::extern_decl(
            "kmalloc",
            vec![],
            Type::ptr(Type::Void),
        ));
        let mut q = Program::new();
        let mut km = Function::new(
            "kmalloc",
            vec![],
            Type::ptr(Type::Void),
            vec![Stmt::ret(Expr::Null)],
        );
        km.attrs.allocator = true;
        q.add_function(km);
        q.add_function(Function::extern_decl("kfree", vec![], Type::Void));
        p.link(q);
        assert_eq!(p.functions.len(), 2);
        assert!(p.function("kmalloc").unwrap().body.is_some());
        assert!(p.function("kmalloc").unwrap().attrs.allocator);
    }

    #[test]
    fn add_function_replaces_the_first_definition_through_the_index() {
        let mut p = Program::new();
        p.add_function(Function::extern_decl("f", vec![], Type::Void));
        p.functions
            .push(Function::extern_decl("g", vec![], Type::Void));
        p.functions
            .push(Function::extern_decl("f", vec![], Type::i32()));
        assert_eq!(p.function("f").unwrap().ret, Type::Void, "first wins");
        let shared = Arc::clone(&p.functions.arcs()[1]);
        p.add_function(Function::new("f", vec![], Type::Void, vec![]));
        assert_eq!(p.functions.len(), 3, "replaced, not appended");
        assert!(p.functions[0].body.is_some());
        assert_eq!(p.functions[2].ret, Type::i32(), "later duplicate untouched");
        assert!(Arc::ptr_eq(&shared, &p.functions.arcs()[1]));
        p.add_function(Function::extern_decl("h", vec![], Type::Void));
        assert_eq!(p.functions.position("h"), Some(3));
        p.function_mut("g").unwrap().name = "k".into();
        assert!(p.function("g").is_none());
        assert_eq!(p.functions.position("k"), Some(1));
    }

    #[test]
    fn resolve_typedef_chain() {
        let mut p = Program::new();
        let typedefs = Arc::make_mut(&mut p.typedefs);
        typedefs.push(("size_t".into(), Type::Int(IntKind::U32)));
        typedefs.push(("len_t".into(), Type::Named("size_t".into())));
        let t = Type::Named("len_t".into());
        assert_eq!(p.resolve_type(&t), &Type::Int(IntKind::U32));
        let unknown = Type::Named("missing".into());
        assert_eq!(p.resolve_type(&unknown), &unknown);
    }

    #[test]
    fn check_kinds_are_stable() {
        assert_eq!(Check::NonNull(Expr::var("p")).kind(), "nonnull");
        assert_eq!(
            Check::PtrBounds {
                ptr: Expr::var("p"),
                index: Expr::int(0),
                len: None
            }
            .kind(),
            "bounds"
        );
        assert_eq!(
            Check::AssertMayBlock {
                site: "read_chan".into()
            }
            .kind(),
            "assert_may_block"
        );
    }

    #[test]
    fn func_attrs_annotated() {
        let mut a = FuncAttrs::default();
        assert!(!a.is_annotated());
        a.blocking = true;
        assert!(a.is_annotated());
    }
}
