//! Static analysis of what CCount must instrument.
//!
//! CCount's compiler "modifies all pointer writes to maintain an 8-bit
//! reference count on each 16-byte chunk of memory" and "requires accurate
//! type information when objects are freed, copied (memcpy), or cleared
//! (memset)". This module computes, for a KC program, exactly which sites
//! those are — the static counterpart of the run-time behaviour implemented
//! by `ivy-vm` — together with the porting-effort statistics the paper
//! reports (types whose layout had to be described, explicit runtime type
//! information sites, memset/memcpy conversions).

use ivy_cmir::ast::{Expr, Function, Program, Stmt};
use ivy_cmir::typecheck::TypeCtx;
use ivy_cmir::types::{Type, CHUNK_SIZE};
use ivy_cmir::visit;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Names treated as free functions.
pub const FREE_FUNCTIONS: &[&str] = &["kfree", "kmem_cache_free", "free_page", "vfree"];
/// Names treated as allocation functions.
pub const ALLOC_FUNCTIONS: &[&str] = &[
    "kmalloc",
    "kzalloc",
    "kmem_cache_alloc",
    "__get_free_page",
    "alloc_page",
    "vmalloc",
];

/// What CCount's compiler would have to touch in a program.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct InstrumentationReport {
    /// Assignments that store a pointer value into memory that is not a
    /// local variable (these get the `RC(b)++, RC(*a)--` rewrite).
    pub counted_pointer_writes: u64,
    /// Assignments that store a pointer into a local variable (not counted
    /// by the kernel version of CCount, per the paper's footnote).
    pub local_pointer_writes: u64,
    /// Call sites of free functions.
    pub free_sites: u64,
    /// Call sites of allocation functions.
    pub alloc_sites: u64,
    /// `memcpy`/`memmove` call sites that must become type-aware.
    pub memcpy_sites: u64,
    /// `memset` call sites that must become type-aware.
    pub memset_sites: u64,
    /// Composite types containing pointers, whose layout CCount must know.
    pub types_needing_layout: u64,
    /// Free sites whose argument is a `void *` (or cast), i.e. places where
    /// explicit run-time type information is needed.
    pub runtime_type_info_sites: u64,
    /// The root variables of those untyped free sites (one entry per site
    /// that frees a bare variable, in traversal order). The engine plugin
    /// feeds these to the shared points-to analysis to name candidate
    /// allocation sites in its diagnostics.
    pub untyped_free_roots: Vec<String>,
    /// Delayed-free scopes already present in the program.
    pub delayed_free_scopes: u64,
    /// Per-subsystem counted pointer writes.
    pub writes_by_subsystem: BTreeMap<String, u64>,
}

impl InstrumentationReport {
    /// The space overhead of the reference counts: one byte per
    /// [`CHUNK_SIZE`]-byte chunk (6.25 %), independent of the program.
    pub fn space_overhead(&self) -> f64 {
        1.0 / CHUNK_SIZE as f64
    }

    /// Total pointer writes (counted + local).
    pub fn total_pointer_writes(&self) -> u64 {
        self.counted_pointer_writes + self.local_pointer_writes
    }

    /// Accumulates another report into this one (used to combine the
    /// per-function reports of [`analyze_function`]).
    pub fn merge(&mut self, other: &InstrumentationReport) {
        self.counted_pointer_writes += other.counted_pointer_writes;
        self.local_pointer_writes += other.local_pointer_writes;
        self.free_sites += other.free_sites;
        self.alloc_sites += other.alloc_sites;
        self.memcpy_sites += other.memcpy_sites;
        self.memset_sites += other.memset_sites;
        self.types_needing_layout += other.types_needing_layout;
        self.runtime_type_info_sites += other.runtime_type_info_sites;
        self.untyped_free_roots
            .extend(other.untyped_free_roots.iter().cloned());
        self.delayed_free_scopes += other.delayed_free_scopes;
        for (subsystem, n) in &other.writes_by_subsystem {
            *self
                .writes_by_subsystem
                .entry(subsystem.clone())
                .or_insert(0) += n;
        }
    }
}

/// Per-function instrumentation reports for every defined function, keyed
/// by name — the granularity the dynamic soundness oracle checks bad-free
/// coverage at (a run-time bad free in a function with no instrumented
/// free site would mean CCount missed a site).
pub fn analyze_by_function(program: &Program) -> BTreeMap<String, InstrumentationReport> {
    program
        .functions
        .iter()
        .filter(|f| f.body.is_some())
        .map(|f| (f.name.clone(), analyze_function(program, f)))
        .collect()
}

/// Analyses a program and reports what CCount must instrument.
pub fn analyze(program: &Program) -> InstrumentationReport {
    let mut report = InstrumentationReport::default();

    for comp in program.composites.iter() {
        let has_ptr = comp.fields.iter().any(|f| contains_pointer(program, &f.ty));
        if has_ptr {
            report.types_needing_layout += 1;
        }
    }

    for func in program.functions.iter().filter(|f| f.body.is_some()) {
        report.merge(&analyze_function(program, func));
    }
    report
}

/// Analyses what CCount must instrument in a single function. The whole
/// analysis is function-local (types are resolved against the program, but
/// no other function's body is consulted), which is what lets the engine
/// schedule and cache CCount per function. `types_needing_layout` is a
/// program-level count and stays zero here.
pub fn analyze_function(program: &Program, func: &Function) -> InstrumentationReport {
    let mut report = InstrumentationReport::default();
    if func.body.is_none() {
        return report;
    }
    {
        let mut ctx = TypeCtx::for_function(program, func);
        let mut local_names: Vec<String> = func.params.iter().map(|p| p.name.clone()).collect();

        visit::walk_fn_stmts(func, &mut |stmt| {
            match stmt {
                Stmt::Local(d, init) => {
                    local_names.push(d.name.clone());
                    ctx.bind(&d.name, d.ty.clone());
                    if init.is_some() && program.resolve_type(&d.ty).is_ptr() {
                        report.local_pointer_writes += 1;
                    }
                }
                Stmt::Assign(lhs, rhs, _) => {
                    let is_ptr_store = ctx
                        .type_of(lhs)
                        .map(|t| program.resolve_type(&t).is_ptr())
                        .unwrap_or(false)
                        || ctx
                            .type_of(rhs)
                            .map(|t| program.resolve_type(&t).is_ptr())
                            .unwrap_or(false);
                    if is_ptr_store {
                        let to_local = matches!(lhs, Expr::Var(v) if local_names.contains(v));
                        if to_local {
                            report.local_pointer_writes += 1;
                        } else {
                            report.counted_pointer_writes += 1;
                            *report
                                .writes_by_subsystem
                                .entry(func.subsystem.clone())
                                .or_insert(0) += 1;
                        }
                    }
                }
                Stmt::DelayedFreeScope(..) => report.delayed_free_scopes += 1,
                _ => {}
            }
            // Walk only the statement's own expressions (conditions,
            // operands, initialisers); nested statements are visited by the
            // outer pre-order walk themselves, so recursing into sub-blocks
            // here would double-count call sites.
            for top in own_exprs(stmt) {
                visit::walk_expr(top, &mut |e| {
                    if let Expr::Call(callee, args) = e {
                        if let Expr::Var(name) = &**callee {
                            if FREE_FUNCTIONS.contains(&name.as_str()) {
                                report.free_sites += 1;
                                if let Some(arg) = args.first() {
                                    if is_untyped_pointer(program, &ctx, arg) {
                                        report.runtime_type_info_sites += 1;
                                        if let Some(var) = root_var(arg) {
                                            report.untyped_free_roots.push(var);
                                        }
                                    }
                                }
                            } else if ALLOC_FUNCTIONS.contains(&name.as_str()) {
                                report.alloc_sites += 1;
                            } else if name == "memcpy" || name == "memmove" {
                                report.memcpy_sites += 1;
                            } else if name == "memset" {
                                report.memset_sites += 1;
                            }
                        }
                    }
                });
            }
        });
    }
    report
}

/// Peels casts and unary operators down to a bare variable, if any.
fn root_var(e: &Expr) -> Option<String> {
    match e {
        Expr::Var(n) => Some(n.clone()),
        Expr::Cast(_, inner) | Expr::Unary(_, inner) => root_var(inner),
        _ => None,
    }
}

/// The expressions belonging directly to a statement (excluding those inside
/// nested statements).
fn own_exprs(stmt: &Stmt) -> Vec<&Expr> {
    match stmt {
        Stmt::Expr(e, _) => vec![e],
        Stmt::Assign(l, r, _) => vec![l, r],
        Stmt::Local(_, Some(init)) => vec![init],
        Stmt::Return(Some(e), _) => vec![e],
        Stmt::If(c, ..) | Stmt::While(c, ..) => vec![c],
        Stmt::Check(c, _) => {
            let mut out = Vec::new();
            visit::walk_check_exprs(c, &mut |e| out.push(e));
            out
        }
        _ => Vec::new(),
    }
}

fn contains_pointer(program: &Program, ty: &Type) -> bool {
    match program.resolve_type(ty) {
        Type::Ptr(..) | Type::Func(_) => true,
        Type::Array(inner, _) => contains_pointer(program, inner),
        Type::Struct(name) | Type::Union(name) => program
            .composite(name)
            .map(|c| c.fields.iter().any(|f| contains_pointer(program, &f.ty)))
            .unwrap_or(false),
        _ => false,
    }
}

/// True when the freed expression's static type gives CCount no element type
/// to work with (a raw `void *`), so explicit run-time type information is
/// needed at this site.
fn is_untyped_pointer(program: &Program, ctx: &TypeCtx<'_>, e: &Expr) -> bool {
    // A cast to `void *` wrapping a typed pointer still carries the type
    // underneath; only genuinely untyped values count.
    let inner = match e {
        Expr::Cast(_, inner) => inner,
        other => other,
    };
    match ctx.type_of(inner) {
        Ok(t) => match program.resolve_type(&t) {
            Type::Ptr(pointee, _) => matches!(program.resolve_type(pointee), Type::Void),
            _ => false,
        },
        Err(_) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivy_cmir::parser::parse_program;

    const SRC: &str = r#"
        #[allocator]
        extern fn kmalloc(size: u32, flags: u32) -> void *;
        extern fn kfree(p: void *);
        extern fn memcpy(dst: void *, src: void *, n: u32) -> void *;
        extern fn memset(p: void *, c: i32, n: u32) -> void *;

        struct dentry { name: u8 *; parent: struct dentry *; }
        struct plain { a: u32; b: u32; }

        global root: struct dentry *;

        #[subsystem("fs")]
        fn link(d: struct dentry * nonnull, parent: struct dentry *) {
            d->parent = parent;      // counted write (heap/global target)
            root = d;                // counted write (global)
            let tmp: struct dentry * = d;   // local write (not counted)
            memcpy(d as void *, parent as void *, sizeof(struct dentry));
        }

        #[subsystem("fs")]
        fn destroy(d: struct dentry * nonnull) {
            memset(d as void *, 0, sizeof(struct dentry));
            kfree(d as void *);
        }

        fn alloc_one() -> struct dentry * {
            return kmalloc(sizeof(struct dentry), 0) as struct dentry *;
        }

        fn raw_free(p: void *) {
            kfree(p);
        }
    "#;

    #[test]
    fn counts_pointer_writes_and_sites() {
        let p = parse_program(SRC).unwrap();
        let r = analyze(&p);
        assert_eq!(r.counted_pointer_writes, 2);
        assert_eq!(r.local_pointer_writes, 1);
        assert_eq!(r.free_sites, 2);
        assert_eq!(r.alloc_sites, 1);
        assert_eq!(r.memcpy_sites, 1);
        assert_eq!(r.memset_sites, 1);
        assert_eq!(r.writes_by_subsystem["fs"], 2);
    }

    #[test]
    fn type_layout_and_rtti_requirements() {
        let p = parse_program(SRC).unwrap();
        let r = analyze(&p);
        // `dentry` contains pointers, `plain` does not.
        assert_eq!(r.types_needing_layout, 1);
        // `destroy` frees a cast-from-typed pointer (type known); `raw_free`
        // frees a genuine void* (needs explicit RTTI).
        assert_eq!(r.runtime_type_info_sites, 1);
    }

    #[test]
    fn space_overhead_matches_paper() {
        let r = InstrumentationReport::default();
        assert!((r.space_overhead() - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn delayed_scopes_counted() {
        let src = r#"
            extern fn kfree(p: void *);
            fn f(p: void *) { delayed_free { kfree(p); } }
        "#;
        let p = parse_program(src).unwrap();
        assert_eq!(analyze(&p).delayed_free_scopes, 1);
    }
}
