//! Constraint generation: KC AST → interned inclusion constraints, batched
//! per function, in one pass.
//!
//! Generation is the only phase that looks at syntax. It walks the AST by
//! reference and emits [`InternedBatch`]es directly — one batch for all
//! global initializers and one per defined function. Every location is a
//! [`LocKey`] over the interner's symbol table and is interned to its id
//! as the constraint that mentions it is emitted; no `Loc` string is built
//! and nothing is interned twice. Global names resolve through a
//! [`ProgramIndex`] built once per solve and function names through the
//! program's own name index, so a name lookup is never a scan of the
//! program; field accesses are typed by `TypeCtx`.
//!
//! A batch depends *only* on the function's own definition and on the
//! whole-program type environment (callee signatures and attributes,
//! global and composite declarations): never on other function bodies.
//! That makes `mix(content_hash, env_hash)` a sound cache key for a batch,
//! which is what [`ConstraintCache`](super::ConstraintCache) exploits to
//! skip regeneration for clean functions after an edit.
//!
//! Per-batch determinism: temporary and allocation-site counters reset per
//! function, so a function's constraints do not depend on its position in
//! the file. Locations are interned in a fixed order — each constraint's
//! operands as it is pushed, then each indirect site's callee, arguments
//! and result — so a program interns to the same ids every time.

use super::intern::{FnvMap, LocInterner, LocKey, Sym};
use super::Sensitivity;
use crate::summary::{fnv1a, mix};
use ivy_cmir::ast::{Block, Expr, Function, GlobalDef, Program, Stmt, VarDecl};
use ivy_cmir::typecheck::TypeCtx;
use ivy_cmir::types::Type;

/// An inclusion constraint over interned location ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IConstraint {
    /// `dst ⊇ {loc}` — `dst` may point to `loc`.
    AddrOf { dst: u32, loc: u32 },
    /// `dst ⊇ src`.
    Copy { dst: u32, src: u32 },
    /// `dst ⊇ *src` — for every `t ∈ pts(src)`, `dst ⊇ t`.
    Load { dst: u32, src: u32 },
    /// `*dst ⊇ src` — for every `t ∈ pts(dst)`, `t ⊇ src`.
    Store { dst: u32, src: u32 },
}

/// A call through a function pointer, waiting for its callee set. The
/// strings key the public `indirect_targets` map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ISite {
    /// Enclosing function.
    pub func: String,
    /// The callee expression as written (`ops->read`).
    pub callee_text: String,
    /// Location holding the function pointer value.
    pub callee: u32,
    /// Locations of the evaluated arguments, in order.
    pub args: Vec<u32>,
    /// Location receiving the call's result.
    pub result: u32,
}

/// One generation unit (the global-initializer batch or one function) —
/// the unit the solver consumes and the
/// [`ConstraintCache`](super::ConstraintCache) stores. Ids are valid for
/// the interner the batch was generated against.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct InternedBatch {
    pub constraints: Vec<IConstraint>,
    pub sites: Vec<ISite>,
    /// Hash of the constraints and sites, computed once when the batch is
    /// generated: equal batches have equal fingerprints, so a solve key
    /// built from them names the solve's whole input.
    pub fingerprint: u64,
}

impl InternedBatch {
    fn fingerprint_of(constraints: &[IConstraint], sites: &[ISite]) -> u64 {
        let mut h = mix(fnv1a(b"pointsto/batch"), constraints.len() as u64);
        for c in constraints {
            let (tag, a, b) = match *c {
                IConstraint::AddrOf { dst, loc } => (0, dst, loc),
                IConstraint::Copy { dst, src } => (1, dst, src),
                IConstraint::Load { dst, src } => (2, dst, src),
                IConstraint::Store { dst, src } => (3, dst, src),
            };
            h = mix(mix(h, tag), u64::from(a) << 32 | u64::from(b));
        }
        h = mix(h, sites.len() as u64);
        for site in sites {
            h = mix(h, fnv1a(site.func.as_bytes()));
            h = mix(h, fnv1a(site.callee_text.as_bytes()));
            h = mix(h, u64::from(site.callee) << 32 | u64::from(site.result));
            h = mix(h, site.args.len() as u64);
            for &a in &site.args {
                h = mix(h, u64::from(a));
            }
        }
        h
    }
}

/// Name resolution over one program, built once per solve: the first
/// global of every name, as `Program::global` would find it by scanning.
/// Functions resolve through the program's own name index.
pub(crate) struct ProgramIndex<'p> {
    program: &'p Program,
    globals: FnvMap<&'p str, &'p GlobalDef>,
}

impl<'p> ProgramIndex<'p> {
    pub(crate) fn new(program: &'p Program) -> ProgramIndex<'p> {
        let mut globals = FnvMap::default();
        for g in program.globals.iter() {
            globals.entry(g.decl.name.as_str()).or_insert(g);
        }
        ProgramIndex { program, globals }
    }

    /// The first function named `name`.
    pub(crate) fn function(&self, name: &str) -> Option<&'p Function> {
        self.program.function(name)
    }
}

/// Generates the batch for all global initializers.
pub(crate) fn gen_globals(
    index: &ProgramIndex<'_>,
    sensitivity: Sensitivity,
    interner: &mut LocInterner,
) -> InternedBatch {
    let mut gen = ConstraintGen::new(index, sensitivity, interner);
    for g in index.program.globals.iter() {
        if let Some(init) = &g.init {
            let unit = format!("__global_init_{}", g.decl.name);
            gen.begin(&unit, &[]);
            let src = gen.gen_value(init);
            let dst = LocKey::Global(gen.sym(&g.decl.name));
            gen.copy(dst, src);
        }
    }
    gen.finish()
}

/// Generates the batch of one defined function.
pub(crate) fn gen_function_batch<'p>(
    index: &ProgramIndex<'p>,
    sensitivity: Sensitivity,
    interner: &mut LocInterner,
    func: &'p Function,
) -> InternedBatch {
    let mut gen = ConstraintGen::new(index, sensitivity, interner);
    gen.begin(&func.name, &func.params);
    let body = func
        .body
        .as_ref()
        .expect("only called for defined functions");
    gen.gen_block(body);
    gen.finish()
}

/// Generates every batch of a program: globals first, then defined
/// functions in program order.
pub(crate) fn gen_program(
    index: &ProgramIndex<'_>,
    sensitivity: Sensitivity,
    interner: &mut LocInterner,
) -> Vec<InternedBatch> {
    let mut out = vec![gen_globals(index, sensitivity, interner)];
    for f in index.program.functions.iter().filter(|f| f.body.is_some()) {
        out.push(gen_function_batch(index, sensitivity, interner, f));
    }
    out
}

/// What a name is bound to at a program point, in `TypeCtx::lookup`
/// order: locals (innermost first), then globals, then functions.
#[derive(Clone, Copy)]
enum Binding<'p> {
    /// A local or global variable of the declared type.
    Var(&'p Type),
    /// A function no variable of the same name shadows. A variable of
    /// function type shadows it too, as the VM resolves names: `f()`
    /// through a function-typed parameter `f` calls through the parameter.
    Func,
}

/// What a variable name denotes where an expression reads it.
enum NameUse {
    /// A function constant: the value is the function's address.
    Function(Sym),
    /// A variable at `loc`; an array-typed one decays to its address.
    Var { loc: LocKey, array: bool },
    /// Neither (an unbound name).
    Unbound,
}

/// An indirect call site whose locations are not interned yet: they are
/// interned after the batch's constraints, in site order.
struct PendingSite {
    func: String,
    callee_text: String,
    callee: LocKey,
    args: Vec<LocKey>,
    result: LocKey,
}

struct ConstraintGen<'g, 'p> {
    index: &'g ProgramIndex<'p>,
    sensitivity: Sensitivity,
    interner: &'g mut LocInterner,
    batch: InternedBatch,
    pending: Vec<PendingSite>,
    /// The current unit: the function, or `__global_init_<name>`.
    unit: String,
    func: Sym,
    temp_counter: u32,
    alloc_counter: u32,
    /// Every local bound so far in the unit (parameters first), for name
    /// resolution. Blocks do not pop their bindings: the analysis is
    /// flow-insensitive, and a later declaration shadows an earlier one.
    locals: Vec<(&'p str, &'p Type)>,
    /// The same bindings, for typing field accesses.
    ctx: TypeCtx<'p>,
    /// Symbol of the `<unknown>` composite.
    unknown: Sym,
}

impl<'g, 'p> ConstraintGen<'g, 'p> {
    fn new(
        index: &'g ProgramIndex<'p>,
        sensitivity: Sensitivity,
        interner: &'g mut LocInterner,
    ) -> ConstraintGen<'g, 'p> {
        let unknown = interner.sym("<unknown>");
        ConstraintGen {
            index,
            sensitivity,
            interner,
            batch: InternedBatch::default(),
            pending: Vec::new(),
            unit: String::new(),
            func: 0,
            temp_counter: 0,
            alloc_counter: 0,
            locals: Vec::new(),
            ctx: TypeCtx::new(index.program),
            unknown,
        }
    }

    /// Starts a generation unit named `unit`, with fresh counters and
    /// `params` as its only locals.
    fn begin(&mut self, unit: &str, params: &'p [VarDecl]) {
        self.unit.clear();
        self.unit.push_str(unit);
        self.func = self.interner.sym(unit);
        self.temp_counter = 0;
        self.alloc_counter = 0;
        self.locals.clear();
        self.ctx = TypeCtx::new(self.index.program);
        for p in params {
            self.bind(p);
        }
    }

    fn bind(&mut self, decl: &'p VarDecl) {
        self.locals.push((&decl.name, &decl.ty));
        self.ctx.bind(&decl.name, decl.ty.clone());
    }

    /// The finished batch: its indirect sites are interned after all of
    /// its constraints, then the whole batch is fingerprinted.
    fn finish(mut self) -> InternedBatch {
        for site in std::mem::take(&mut self.pending) {
            let callee = self.interner.intern(site.callee);
            let args = site.args.iter().map(|&a| self.interner.intern(a)).collect();
            let result = self.interner.intern(site.result);
            self.batch.sites.push(ISite {
                func: site.func,
                callee_text: site.callee_text,
                callee,
                args,
                result,
            });
        }
        self.batch.fingerprint =
            InternedBatch::fingerprint_of(&self.batch.constraints, &self.batch.sites);
        self.batch
    }

    fn sym(&mut self, name: &str) -> Sym {
        self.interner.sym(name)
    }

    fn fresh(&mut self) -> LocKey {
        self.temp_counter += 1;
        LocKey::Temp {
            func: self.func,
            id: self.temp_counter,
        }
    }

    fn addr_of(&mut self, dst: LocKey, loc: LocKey) {
        let dst = self.interner.intern(dst);
        let loc = self.interner.intern(loc);
        self.batch
            .constraints
            .push(IConstraint::AddrOf { dst, loc });
    }

    /// `dst ⊇ src`; under Steensgaard, preceded by its mirror `src ⊇ dst`.
    fn copy(&mut self, dst: LocKey, src: LocKey) {
        if self.sensitivity == Sensitivity::Steensgaard {
            let mirror_dst = self.interner.intern(src);
            let mirror_src = self.interner.intern(dst);
            self.batch.constraints.push(IConstraint::Copy {
                dst: mirror_dst,
                src: mirror_src,
            });
        }
        let dst = self.interner.intern(dst);
        let src = self.interner.intern(src);
        self.batch.constraints.push(IConstraint::Copy { dst, src });
    }

    fn load(&mut self, dst: LocKey, src: LocKey) {
        let dst = self.interner.intern(dst);
        let src = self.interner.intern(src);
        self.batch.constraints.push(IConstraint::Load { dst, src });
    }

    fn store(&mut self, dst: LocKey, src: LocKey) {
        let dst = self.interner.intern(dst);
        let src = self.interner.intern(src);
        self.batch.constraints.push(IConstraint::Store { dst, src });
    }

    // ---- names ---------------------------------------------------------

    fn lookup(&self, name: &str) -> Option<Binding<'p>> {
        if let Some(&(_, t)) = self.locals.iter().rev().find(|(n, _)| *n == name) {
            return Some(Binding::Var(t));
        }
        if let Some(g) = self.index.globals.get(name) {
            return Some(Binding::Var(&g.decl.ty));
        }
        self.index.function(name).map(|_| Binding::Func)
    }

    /// The location of variable `name`, bound as `binding`: a global (even
    /// under a local of the same name), a local of the unit, or `None` for
    /// an unbound name or a bare function name (which the caller handles
    /// as `AddrOf(Func)`).
    fn var_loc(&mut self, name: &str, binding: Option<Binding<'p>>) -> Option<LocKey> {
        let binding = binding?;
        if self.index.globals.contains_key(name) {
            return Some(LocKey::Global(self.sym(name)));
        }
        if matches!(binding, Binding::Func) {
            return None;
        }
        Some(LocKey::Local {
            func: self.func,
            var: self.sym(name),
        })
    }

    /// What variable `name` denotes where it is read, with one lookup.
    fn name_use(&mut self, name: &str) -> NameUse {
        let binding = self.lookup(name);
        if matches!(binding, Some(Binding::Func)) {
            return NameUse::Function(self.sym(name));
        }
        match self.var_loc(name, binding) {
            Some(loc) => {
                let declared = match binding {
                    Some(Binding::Var(t)) => Some(t),
                    _ => None,
                };
                NameUse::Var {
                    loc,
                    array: self.is_array(declared),
                }
            }
            None => NameUse::Unbound,
        }
    }

    fn field_loc(&mut self, composite: Option<Sym>, field: &str) -> LocKey {
        match (self.sensitivity, composite) {
            (Sensitivity::AndersenField, Some(c)) => LocKey::Field {
                composite: c,
                field: self.sym(field),
            },
            (_, Some(c)) => LocKey::Composite(c),
            (_, None) => LocKey::Composite(self.unknown),
        }
    }

    // ---- types ---------------------------------------------------------

    /// The composite (struct/union) behind an expression's type or the
    /// type it points to.
    fn composite_of(&mut self, e: &Expr) -> Option<Sym> {
        let name = self.ctx.composite_name_of(e)?;
        Some(self.interner.sym(&name))
    }

    /// Whether `t` is an array type (an array used as a value decays to a
    /// pointer to its own storage).
    fn is_array(&self, t: Option<&Type>) -> bool {
        t.is_some_and(|t| matches!(self.index.program.resolve_type(t), Type::Array(..)))
    }

    // ---- syntax ----------------------------------------------------------

    fn gen_block(&mut self, block: &'p Block) {
        for stmt in &block.stmts {
            self.gen_stmt(stmt);
        }
    }

    fn gen_stmt(&mut self, stmt: &'p Stmt) {
        match stmt {
            Stmt::Local(d, init) => {
                if let Some(init) = init {
                    let src = self.gen_value(init);
                    let dst = LocKey::Local {
                        func: self.func,
                        var: self.sym(&d.name),
                    };
                    self.copy(dst, src);
                }
                self.bind(d);
            }
            Stmt::Assign(lhs, rhs, _) => {
                let src = self.gen_value(rhs);
                self.gen_store(lhs, src);
            }
            Stmt::Expr(e, _) => {
                self.gen_value(e);
            }
            Stmt::Return(Some(e), _) => {
                let src = self.gen_value(e);
                self.copy(LocKey::Ret(self.func), src);
            }
            Stmt::Return(None, _) | Stmt::Break(_) | Stmt::Continue(_) | Stmt::Check(..) => {}
            Stmt::If(c, then_b, else_b, _) => {
                self.gen_value(c);
                self.gen_block(then_b);
                if let Some(b) = else_b {
                    self.gen_block(b);
                }
            }
            Stmt::While(c, body, _) => {
                self.gen_value(c);
                self.gen_block(body);
            }
            Stmt::Block(b) | Stmt::DelayedFreeScope(b, _) => self.gen_block(b),
        }
    }

    fn gen_store(&mut self, lhs: &'p Expr, src: LocKey) {
        match lhs {
            Expr::Var(name) => {
                if let Some(dst) = self.var_loc(name, self.lookup(name)) {
                    self.copy(dst, src);
                }
            }
            Expr::Deref(inner) | Expr::Index(inner, _) => {
                let dst = self.gen_value(inner);
                self.store(dst, src);
            }
            Expr::Arrow(obj, field) | Expr::Field(obj, field) => {
                let comp = self.composite_of(obj);
                self.gen_value(obj);
                let dst = self.field_loc(comp, field);
                self.copy(dst, src);
            }
            Expr::Cast(_, inner) => self.gen_store(inner, src),
            _ => {
                // Not an lvalue the analysis models; evaluate for calls.
                self.gen_value(lhs);
            }
        }
    }

    fn gen_value(&mut self, e: &'p Expr) -> LocKey {
        match e {
            Expr::Int(_) | Expr::Str(_) | Expr::Null | Expr::SizeOf(_) => self.fresh(),
            Expr::Var(name) => match self.name_use(name) {
                NameUse::Function(f) => {
                    let t = self.fresh();
                    self.addr_of(t, LocKey::Func(f));
                    t
                }
                // Arrays decay to a pointer to their own storage when used
                // as a value.
                NameUse::Var { loc, array: true } => {
                    let t = self.fresh();
                    self.addr_of(t, loc);
                    t
                }
                NameUse::Var { loc, array: false } => loc,
                NameUse::Unbound => self.fresh(),
            },
            Expr::Unary(_, inner) | Expr::Cast(_, inner) => self.gen_value(inner),
            Expr::Binary(_, a, b) => {
                let la = self.gen_value(a);
                let lb = self.gen_value(b);
                let t = self.fresh();
                self.copy(t, la);
                self.copy(t, lb);
                t
            }
            Expr::Deref(inner) | Expr::Index(inner, _) => {
                let src = self.gen_value(inner);
                let t = self.fresh();
                self.load(t, src);
                t
            }
            Expr::Arrow(obj, field) | Expr::Field(obj, field) => {
                let comp = self.composite_of(obj);
                self.gen_value(obj);
                let t = self.fresh();
                let f = self.field_loc(comp, field);
                // An array-typed field used as a value decays to a pointer
                // to the field's own storage (like array-typed variables
                // above). Modelling it as a value copy would make
                // `kmemset(dev->ring, ...)`-style handoffs statically
                // invisible — a soundness gap the dynamic oracle caught.
                if self.is_array(self.ctx.type_of(e).ok().as_ref()) {
                    self.addr_of(t, f);
                } else {
                    self.copy(t, f);
                }
                t
            }
            Expr::AddrOf(inner) => match &**inner {
                Expr::Var(name) => {
                    let t = self.fresh();
                    let loc = match self.name_use(name) {
                        NameUse::Function(f) => LocKey::Func(f),
                        NameUse::Var { loc, .. } => loc,
                        NameUse::Unbound => return t,
                    };
                    self.addr_of(t, loc);
                    t
                }
                Expr::Arrow(obj, field) | Expr::Field(obj, field) => {
                    let comp = self.composite_of(obj);
                    self.gen_value(obj);
                    let t = self.fresh();
                    let loc = self.field_loc(comp, field);
                    self.addr_of(t, loc);
                    t
                }
                Expr::Index(base, _) => self.gen_value(base),
                Expr::Deref(p) => self.gen_value(p),
                other => self.gen_value(other),
            },
            Expr::Call(callee, args) => {
                let arg_locs: Vec<LocKey> = args.iter().map(|a| self.gen_value(a)).collect();
                let result = self.fresh();
                match &**callee {
                    Expr::Var(name) if matches!(self.lookup(name), Some(Binding::Func)) => {
                        let f = self.index.function(name).expect("checked above");
                        let callee = self.sym(name);
                        if f.attrs.allocator {
                            self.alloc_counter += 1;
                            let site = LocKey::Alloc {
                                func: self.func,
                                index: self.alloc_counter,
                            };
                            self.addr_of(result, site);
                        }
                        for (param, &arg) in f.params.iter().zip(&arg_locs) {
                            let dst = LocKey::Local {
                                func: callee,
                                var: self.sym(&param.name),
                            };
                            self.copy(dst, arg);
                        }
                        if !f.attrs.allocator {
                            self.copy(result, LocKey::Ret(callee));
                        }
                    }
                    other => {
                        let callee = self.gen_value(other);
                        self.pending.push(PendingSite {
                            func: self.unit.clone(),
                            callee_text: ivy_cmir::pretty::expr_str(other),
                            callee,
                            args: arg_locs,
                            result,
                        });
                    }
                }
                result
            }
        }
    }
}
