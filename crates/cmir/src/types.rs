//! The KC type language, including Deputy annotations.
//!
//! KC types mirror the subset of C that the paper's tools reason about:
//! integers of the i386 widths, pointers (optionally carrying Deputy bounds
//! annotations), fixed-size arrays, structs, unions, named typedefs, and
//! function types (used for function pointers).
//!
//! Deputy annotations are *part of the pointer type* ([`PtrAnnot`]), exactly
//! as in the paper: `u8 * count(len) data` declares a pointer to `len`
//! elements of `u8`. Annotations have erasure semantics — they never change
//! data representation — and are untrusted: `ivy-deputy` checks them.

use crate::span::Span;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Size of a machine pointer in bytes (the paper's kernel is i386).
pub const PTR_SIZE: u64 = 4;
/// Size of a CCount accounting chunk in bytes (one 8-bit refcount per chunk).
pub const CHUNK_SIZE: u64 = 16;

/// Integer kinds available in KC (i386 widths).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IntKind {
    /// Signed 8-bit (`i8` / `char`).
    I8,
    /// Unsigned 8-bit (`u8` / `unsigned char`).
    U8,
    /// Signed 16-bit.
    I16,
    /// Unsigned 16-bit.
    U16,
    /// Signed 32-bit (`int`, `long` on i386).
    I32,
    /// Unsigned 32-bit (`unsigned`, `size_t` on i386).
    U32,
    /// Signed 64-bit (`long long`).
    I64,
    /// Unsigned 64-bit (`unsigned long long`).
    U64,
}

impl IntKind {
    /// Width in bytes.
    pub fn size(self) -> u64 {
        match self {
            IntKind::I8 | IntKind::U8 => 1,
            IntKind::I16 | IntKind::U16 => 2,
            IntKind::I32 | IntKind::U32 => 4,
            IntKind::I64 | IntKind::U64 => 8,
        }
    }

    /// Whether the kind is signed.
    pub fn is_signed(self) -> bool {
        matches!(
            self,
            IntKind::I8 | IntKind::I16 | IntKind::I32 | IntKind::I64
        )
    }

    /// Wraps a 64-bit value into this kind's range (two's-complement).
    pub fn truncate(self, v: i64) -> i64 {
        let bits = self.size() * 8;
        if bits == 64 {
            return v;
        }
        let mask = (1u64 << bits) - 1;
        let uv = (v as u64) & mask;
        if self.is_signed() {
            let sign_bit = 1u64 << (bits - 1);
            if uv & sign_bit != 0 {
                (uv | !mask) as i64
            } else {
                uv as i64
            }
        } else {
            uv as i64
        }
    }

    /// The textual keyword used by the KC syntax.
    pub fn keyword(self) -> &'static str {
        match self {
            IntKind::I8 => "i8",
            IntKind::U8 => "u8",
            IntKind::I16 => "i16",
            IntKind::U16 => "u16",
            IntKind::I32 => "i32",
            IntKind::U32 => "u32",
            IntKind::I64 => "i64",
            IntKind::U64 => "u64",
        }
    }
}

/// A restricted expression language used inside Deputy annotations.
///
/// Deputy bounds are written "in terms of other variables in the
/// environment"; the restricted form keeps the type language decidable and
/// avoids mutual recursion with full [`crate::ast::Expr`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BoundExpr {
    /// Integer constant.
    Const(i64),
    /// A variable in scope (a parameter, local, or global).
    Var(String),
    /// A field of the enclosing struct (for annotations on struct members),
    /// e.g. `count(len)` on `data` inside `struct sk_buff`.
    SelfField(String),
    /// Sum of two bound expressions.
    Add(Box<BoundExpr>, Box<BoundExpr>),
    /// Difference of two bound expressions.
    Sub(Box<BoundExpr>, Box<BoundExpr>),
    /// Product of two bound expressions.
    Mul(Box<BoundExpr>, Box<BoundExpr>),
}

impl BoundExpr {
    /// Convenience constructor for a variable reference.
    pub fn var(name: impl Into<String>) -> Self {
        BoundExpr::Var(name.into())
    }

    /// Convenience constructor for a field of the enclosing struct.
    pub fn field(name: impl Into<String>) -> Self {
        BoundExpr::SelfField(name.into())
    }

    /// Convenience constructor for a constant.
    pub fn konst(v: i64) -> Self {
        BoundExpr::Const(v)
    }

    /// All variable names mentioned by this expression (free variables).
    pub fn free_vars(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_free_vars(&mut out);
        out
    }

    fn collect_free_vars(&self, out: &mut Vec<String>) {
        match self {
            BoundExpr::Const(_) => {}
            BoundExpr::Var(v) | BoundExpr::SelfField(v) => {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            BoundExpr::Add(a, b) | BoundExpr::Sub(a, b) | BoundExpr::Mul(a, b) => {
                a.collect_free_vars(out);
                b.collect_free_vars(out);
            }
        }
    }

    /// Evaluates the expression given a lookup function for variables.
    ///
    /// Returns `None` if a variable is missing from the environment.
    pub fn eval(&self, lookup: &dyn Fn(&str) -> Option<i64>) -> Option<i64> {
        match self {
            BoundExpr::Const(c) => Some(*c),
            BoundExpr::Var(v) | BoundExpr::SelfField(v) => lookup(v),
            BoundExpr::Add(a, b) => Some(a.eval(lookup)?.wrapping_add(b.eval(lookup)?)),
            BoundExpr::Sub(a, b) => Some(a.eval(lookup)?.wrapping_sub(b.eval(lookup)?)),
            BoundExpr::Mul(a, b) => Some(a.eval(lookup)?.wrapping_mul(b.eval(lookup)?)),
        }
    }

    /// Evaluates to a constant when no variables are involved.
    pub fn as_const(&self) -> Option<i64> {
        self.eval(&|_| None)
    }
}

impl fmt::Display for BoundExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", bound_expr_prec(self, 0))
    }
}

/// Renders a bound expression with enough parentheses that re-parsing yields
/// the same tree (`+`/`-` are left-associative; `*` binds tighter).
fn bound_expr_prec(e: &BoundExpr, parent_prec: u8) -> String {
    match e {
        BoundExpr::Const(c) => {
            if *c < 0 {
                format!("({c})")
            } else {
                c.to_string()
            }
        }
        BoundExpr::Var(v) | BoundExpr::SelfField(v) => v.clone(),
        BoundExpr::Add(a, b) | BoundExpr::Sub(a, b) => {
            let op = if matches!(e, BoundExpr::Add(..)) {
                "+"
            } else {
                "-"
            };
            let s = format!("{} {op} {}", bound_expr_prec(a, 1), bound_expr_prec(b, 2));
            if parent_prec > 1 {
                format!("({s})")
            } else {
                s
            }
        }
        BoundExpr::Mul(a, b) => {
            let s = format!("{} * {}", bound_expr_prec(a, 3), bound_expr_prec(b, 4));
            if parent_prec > 3 {
                format!("({s})")
            } else {
                s
            }
        }
    }
}

/// Bounds component of a Deputy pointer annotation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Bounds {
    /// Unannotated legacy pointer: Deputy does not yet know its extent.
    ///
    /// This is the state of every pointer in un-converted kernel code; the
    /// Deputy conversion pass must either infer an annotation, default to
    /// [`Bounds::Single`], or mark the enclosing code trusted.
    #[default]
    Unknown,
    /// A pointer to exactly one element (Deputy's `safe` default).
    Single,
    /// `count(e)`: points to `e` elements.
    Count(BoundExpr),
    /// `bound(lo, hi)`: the pointer lies between `lo` and `hi`.
    Bound(BoundExpr, BoundExpr),
    /// `auto`: bounds carried implicitly (Deputy inserts run-time metadata
    /// lookups instead of static reasoning). Used where no variable in the
    /// environment describes the extent.
    Auto,
}

impl Bounds {
    /// Whether these bounds were written by a programmer (i.e. count towards
    /// the annotation-burden statistics of experiment E2).
    pub fn is_annotation(&self) -> bool {
        !matches!(self, Bounds::Unknown)
    }
}

/// The full set of Deputy annotations attachable to a pointer type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct PtrAnnot {
    /// Bounds information.
    pub bounds: Bounds,
    /// `nullterm`: the sequence is terminated by a zero element.
    pub nullterm: bool,
    /// `nonnull`: the pointer may never be null.
    pub nonnull: bool,
    /// `opt`: the pointer is explicitly allowed to be null.
    pub opt: bool,
    /// `trusted`: Deputy must not check uses of this pointer (escape hatch).
    pub trusted: bool,
    /// `poly`: points to polymorphic data (e.g. `void *` container payloads).
    pub poly: bool,
}

impl PtrAnnot {
    /// Annotation set for a completely unannotated legacy pointer.
    pub fn unknown() -> Self {
        PtrAnnot::default()
    }

    /// Annotation for a single-element (`safe`) pointer.
    pub fn single() -> Self {
        PtrAnnot {
            bounds: Bounds::Single,
            ..PtrAnnot::default()
        }
    }

    /// Annotation for a `count(e)` pointer.
    pub fn count(e: BoundExpr) -> Self {
        PtrAnnot {
            bounds: Bounds::Count(e),
            ..PtrAnnot::default()
        }
    }

    /// Annotation for a trusted pointer.
    pub fn trusted() -> Self {
        PtrAnnot {
            trusted: true,
            ..PtrAnnot::default()
        }
    }

    /// True if the programmer wrote any non-default annotation here.
    pub fn is_annotated(&self) -> bool {
        self.bounds.is_annotation()
            || self.nullterm
            || self.nonnull
            || self.opt
            || self.trusted
            || self.poly
    }

    /// Free variables referenced by the bounds expressions.
    pub fn free_vars(&self) -> Vec<String> {
        match &self.bounds {
            Bounds::Count(e) => e.free_vars(),
            Bounds::Bound(a, b) => {
                let mut v = a.free_vars();
                for x in b.free_vars() {
                    if !v.contains(&x) {
                        v.push(x);
                    }
                }
                v
            }
            _ => Vec::new(),
        }
    }
}

/// A KC type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Type {
    /// `void`.
    Void,
    /// `bool` (used by generated code for flags; 1 byte).
    Bool,
    /// Integer of a given kind.
    Int(IntKind),
    /// Pointer to `pointee` with Deputy annotations.
    Ptr(Box<Type>, PtrAnnot),
    /// Fixed-size array.
    Array(Box<Type>, u64),
    /// Named struct (definition lives in the program's struct table).
    Struct(String),
    /// Named union.
    Union(String),
    /// Function type (only meaningful behind a pointer or as a declaration).
    Func(Box<FuncType>),
    /// A typedef name, resolved against the program's typedef table.
    Named(String),
}

/// Parameter and return types of a function or function pointer.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FuncType {
    /// Parameter types, in order.
    pub params: Vec<Type>,
    /// Return type.
    pub ret: Type,
}

impl Type {
    /// Gives every untrusted pointer in this type that has no bounds
    /// annotation Deputy's default bounds — `auto` when the pointer is
    /// indexed or offset (`used_with_arithmetic`), `single` otherwise —
    /// and returns how many pointers it gave one.
    pub fn apply_default_bounds(&mut self, used_with_arithmetic: bool) -> u64 {
        match self {
            Type::Ptr(inner, ann) => {
                let mut n = inner.apply_default_bounds(used_with_arithmetic);
                if !ann.trusted && matches!(ann.bounds, Bounds::Unknown) {
                    ann.bounds = if used_with_arithmetic {
                        Bounds::Auto
                    } else {
                        Bounds::Single
                    };
                    n += 1;
                }
                n
            }
            Type::Array(inner, _) => inner.apply_default_bounds(used_with_arithmetic),
            _ => 0,
        }
    }

    /// The variables the pointer annotations in this type mention, through
    /// pointees, array elements and function-pointer signatures.
    pub fn annotation_vars(&self) -> Vec<String> {
        match self {
            Type::Ptr(inner, ann) => {
                let mut v = ann.free_vars();
                v.extend(inner.annotation_vars());
                v
            }
            Type::Array(inner, _) => inner.annotation_vars(),
            Type::Func(ft) => {
                let mut v = ft.ret.annotation_vars();
                for p in &ft.params {
                    v.extend(p.annotation_vars());
                }
                v
            }
            _ => Vec::new(),
        }
    }

    /// Number of annotated pointers in this type, through pointees, array
    /// elements and function-pointer signatures.
    pub fn annotation_count(&self) -> u64 {
        match self {
            Type::Ptr(inner, ann) => u64::from(ann.is_annotated()) + inner.annotation_count(),
            Type::Array(inner, _) => inner.annotation_count(),
            Type::Func(ft) => {
                ft.ret.annotation_count()
                    + ft.params.iter().map(Type::annotation_count).sum::<u64>()
            }
            _ => 0,
        }
    }

    /// `u8`.
    pub fn u8() -> Type {
        Type::Int(IntKind::U8)
    }
    /// `i8`.
    pub fn i8() -> Type {
        Type::Int(IntKind::I8)
    }
    /// `u16`.
    pub fn u16() -> Type {
        Type::Int(IntKind::U16)
    }
    /// `i32` (C `int`).
    pub fn i32() -> Type {
        Type::Int(IntKind::I32)
    }
    /// `u32` (C `unsigned` / `size_t`).
    pub fn u32() -> Type {
        Type::Int(IntKind::U32)
    }
    /// `i64`.
    pub fn i64() -> Type {
        Type::Int(IntKind::I64)
    }
    /// `u64`.
    pub fn u64() -> Type {
        Type::Int(IntKind::U64)
    }

    /// An unannotated (legacy) pointer to `t`.
    pub fn ptr(t: Type) -> Type {
        Type::Ptr(Box::new(t), PtrAnnot::unknown())
    }

    /// A single-element (`safe`) pointer to `t`.
    pub fn ptr_single(t: Type) -> Type {
        Type::Ptr(Box::new(t), PtrAnnot::single())
    }

    /// A `count(e)` pointer to `t`.
    pub fn ptr_count(t: Type, e: BoundExpr) -> Type {
        Type::Ptr(Box::new(t), PtrAnnot::count(e))
    }

    /// A trusted pointer to `t`.
    pub fn ptr_trusted(t: Type) -> Type {
        Type::Ptr(Box::new(t), PtrAnnot::trusted())
    }

    /// A pointer with explicit annotations.
    pub fn ptr_ann(t: Type, ann: PtrAnnot) -> Type {
        Type::Ptr(Box::new(t), ann)
    }

    /// A pointer to a named struct.
    pub fn struct_ptr(name: impl Into<String>) -> Type {
        Type::ptr(Type::Struct(name.into()))
    }

    /// Returns true if this is any pointer type.
    pub fn is_ptr(&self) -> bool {
        matches!(self, Type::Ptr(..))
    }

    /// Returns true if this is an integer or bool type.
    pub fn is_integral(&self) -> bool {
        matches!(self, Type::Int(_) | Type::Bool)
    }

    /// Returns the pointee type if this is a pointer.
    pub fn pointee(&self) -> Option<&Type> {
        match self {
            Type::Ptr(t, _) => Some(t),
            _ => None,
        }
    }

    /// Returns the pointer annotations if this is a pointer.
    pub fn ptr_annot(&self) -> Option<&PtrAnnot> {
        match self {
            Type::Ptr(_, a) => Some(a),
            _ => None,
        }
    }

    /// Returns a mutable reference to the pointer annotations if a pointer.
    pub fn ptr_annot_mut(&mut self) -> Option<&mut PtrAnnot> {
        match self {
            Type::Ptr(_, a) => Some(a),
            _ => None,
        }
    }

    /// True if this type (or any nested component) carries a programmer
    /// annotation. Used by the burden statistics.
    pub fn is_annotated(&self) -> bool {
        match self {
            Type::Ptr(inner, ann) => ann.is_annotated() || inner.is_annotated(),
            Type::Array(inner, _) => inner.is_annotated(),
            Type::Func(ft) => ft.ret.is_annotated() || ft.params.iter().any(Type::is_annotated),
            _ => false,
        }
    }

    /// Strips every Deputy annotation from the type (erasure semantics).
    pub fn erased(&self) -> Type {
        match self {
            Type::Ptr(inner, _) => Type::Ptr(Box::new(inner.erased()), PtrAnnot::unknown()),
            Type::Array(inner, n) => Type::Array(Box::new(inner.erased()), *n),
            Type::Func(ft) => Type::Func(Box::new(FuncType {
                params: ft.params.iter().map(Type::erased).collect(),
                ret: ft.ret.erased(),
            })),
            other => other.clone(),
        }
    }

    /// Structural equality ignoring Deputy annotations.
    ///
    /// The paper requires that annotations never change data representation,
    /// so representation compatibility is always judged on erased types.
    pub fn same_repr(&self, other: &Type) -> bool {
        self.erased() == other.erased()
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Bool => write!(f, "bool"),
            Type::Int(k) => write!(f, "{}", k.keyword()),
            Type::Ptr(inner, ann) => {
                write!(f, "{inner} *")?;
                write_annot(f, ann)
            }
            Type::Array(inner, n) => write!(f, "{inner}[{n}]"),
            Type::Struct(name) => write!(f, "struct {name}"),
            Type::Union(name) => write!(f, "union {name}"),
            Type::Func(ft) => {
                write!(f, "fn(")?;
                for (i, p) in ft.params.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{p}")?;
                }
                write!(f, ") -> {}", ft.ret)
            }
            Type::Named(n) => write!(f, "{n}"),
        }
    }
}

fn write_annot(f: &mut fmt::Formatter<'_>, ann: &PtrAnnot) -> fmt::Result {
    match &ann.bounds {
        Bounds::Unknown => {}
        Bounds::Single => write!(f, " single")?,
        Bounds::Count(e) => write!(f, " count({e})")?,
        Bounds::Bound(a, b) => write!(f, " bound({a}, {b})")?,
        Bounds::Auto => write!(f, " auto")?,
    }
    if ann.nullterm {
        write!(f, " nullterm")?;
    }
    if ann.nonnull {
        write!(f, " nonnull")?;
    }
    if ann.opt {
        write!(f, " opt")?;
    }
    if ann.trusted {
        write!(f, " trusted")?;
    }
    if ann.poly {
        write!(f, " poly")?;
    }
    Ok(())
}

/// A field of a struct or union, possibly carrying a `when(tag == v)`
/// discriminator for checked unions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Type,
    /// For union members: the arm is valid only when the named sibling tag
    /// field (in the enclosing struct) equals the given value.
    pub when: Option<(String, i64)>,
    /// Source span of the declaration.
    pub span: Span,
}

impl Field {
    /// Creates a plain field.
    pub fn new(name: impl Into<String>, ty: Type) -> Self {
        Field {
            name: name.into(),
            ty,
            when: None,
            span: Span::synthetic(),
        }
    }

    /// Creates a union arm guarded by `when(tag == value)`.
    pub fn when(name: impl Into<String>, ty: Type, tag: impl Into<String>, value: i64) -> Self {
        Field {
            name: name.into(),
            ty,
            when: Some((tag.into(), value)),
            span: Span::synthetic(),
        }
    }

    /// True if the field declaration carries any Deputy annotation.
    pub fn is_annotated(&self) -> bool {
        self.ty.is_annotated() || self.when.is_some()
    }
}

/// A struct or union definition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CompositeDef {
    /// Type name.
    pub name: String,
    /// Whether this is a union (fields overlap) or a struct (fields laid out
    /// sequentially, no padding beyond natural alignment).
    pub is_union: bool,
    /// The fields, in declaration order.
    pub fields: Vec<Field>,
    /// Source span.
    pub span: Span,
}

impl CompositeDef {
    /// Creates a struct definition.
    pub fn strukt(name: impl Into<String>, fields: Vec<Field>) -> Self {
        CompositeDef {
            name: name.into(),
            is_union: false,
            fields,
            span: Span::synthetic(),
        }
    }

    /// Creates a union definition.
    pub fn union(name: impl Into<String>, fields: Vec<Field>) -> Self {
        CompositeDef {
            name: name.into(),
            is_union: true,
            fields,
            span: Span::synthetic(),
        }
    }

    /// Finds a field by name.
    pub fn field(&self, name: &str) -> Option<&Field> {
        self.fields.iter().find(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_kind_sizes() {
        assert_eq!(IntKind::U8.size(), 1);
        assert_eq!(IntKind::I16.size(), 2);
        assert_eq!(IntKind::U32.size(), 4);
        assert_eq!(IntKind::I64.size(), 8);
    }

    #[test]
    fn truncate_wraps_unsigned() {
        assert_eq!(IntKind::U8.truncate(256), 0);
        assert_eq!(IntKind::U8.truncate(257), 1);
        assert_eq!(IntKind::U8.truncate(-1), 255);
        assert_eq!(IntKind::U16.truncate(65536 + 5), 5);
    }

    #[test]
    fn truncate_sign_extends_signed() {
        assert_eq!(IntKind::I8.truncate(255), -1);
        assert_eq!(IntKind::I8.truncate(127), 127);
        assert_eq!(IntKind::I8.truncate(128), -128);
        assert_eq!(
            IntKind::I32.truncate(i64::from(i32::MIN)),
            i64::from(i32::MIN)
        );
    }

    #[test]
    fn bound_expr_eval_and_vars() {
        let e = BoundExpr::Add(
            Box::new(BoundExpr::var("n")),
            Box::new(BoundExpr::Mul(
                Box::new(BoundExpr::konst(2)),
                Box::new(BoundExpr::var("m")),
            )),
        );
        let vars = e.free_vars();
        assert_eq!(vars, vec!["n".to_string(), "m".to_string()]);
        let env = |name: &str| match name {
            "n" => Some(3),
            "m" => Some(4),
            _ => None,
        };
        assert_eq!(e.eval(&env), Some(11));
        assert_eq!(e.as_const(), None);
        assert_eq!(BoundExpr::konst(7).as_const(), Some(7));
    }

    #[test]
    fn erasure_strips_annotations() {
        let t = Type::ptr_count(Type::u8(), BoundExpr::var("len"));
        assert!(t.is_annotated());
        let e = t.erased();
        assert!(!e.is_annotated());
        assert!(t.same_repr(&e));
        assert!(t.same_repr(&Type::ptr(Type::u8())));
        assert!(!t.same_repr(&Type::ptr(Type::u32())));
    }

    #[test]
    fn annotation_detection_nested() {
        let t = Type::ptr(Type::ptr_count(Type::u32(), BoundExpr::konst(4)));
        assert!(t.is_annotated());
        let plain = Type::ptr(Type::ptr(Type::u32()));
        assert!(!plain.is_annotated());
    }

    #[test]
    fn display_round_readable() {
        let t = Type::ptr_count(Type::u8(), BoundExpr::var("len"));
        assert_eq!(format!("{t}"), "u8 * count(len)");
        let t2 = Type::Array(Box::new(Type::i32()), 8);
        assert_eq!(format!("{t2}"), "i32[8]");
    }

    #[test]
    fn composite_field_lookup() {
        let s = CompositeDef::strukt(
            "sk_buff",
            vec![
                Field::new("len", Type::u32()),
                Field::new("data", Type::ptr_count(Type::u8(), BoundExpr::field("len"))),
            ],
        );
        assert!(s.field("data").unwrap().is_annotated());
        assert!(!s.field("len").unwrap().is_annotated());
        assert!(s.field("missing").is_none());
    }
}
