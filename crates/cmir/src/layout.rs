//! Data layout: sizes, alignments, and field offsets for KC types.
//!
//! The layout rules follow the i386 System V ABI that the paper's kernel
//! targets: natural alignment up to 4 bytes, 4-byte pointers, structs padded
//! to the maximum member alignment, unions as large as their largest member.
//!
//! CCount's 16-byte chunk accounting ([`crate::types::CHUNK_SIZE`]) and the
//! 6.25 % space-overhead figure both derive from these sizes.

use crate::ast::Program;
use crate::error::{CmirError, Result};
use crate::span::Span;
use crate::types::{CompositeDef, Type, PTR_SIZE};

/// Computed layout of a type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Size in bytes (already rounded up to alignment for composites).
    pub size: u64,
    /// Alignment in bytes.
    pub align: u64,
}

impl Layout {
    /// Creates a layout.
    pub fn new(size: u64, align: u64) -> Self {
        Layout { size, align }
    }
}

/// Layout oracle for a program: resolves typedefs and composite definitions.
pub struct LayoutCtx<'p> {
    program: &'p Program,
}

impl<'p> LayoutCtx<'p> {
    /// Creates a layout context for a program.
    pub fn new(program: &'p Program) -> Self {
        LayoutCtx { program }
    }

    /// Computes the layout of a type.
    ///
    /// Returns an error for `void`, bare function types, and references to
    /// undefined structs/unions/typedefs.
    pub fn layout_of(&self, ty: &Type) -> Result<Layout> {
        self.layout_of_depth(ty, 0)
    }

    fn layout_of_depth(&self, ty: &Type, depth: u32) -> Result<Layout> {
        if depth > 64 {
            return Err(CmirError::ty(
                "type nesting too deep (recursive struct by value?)",
                Span::synthetic(),
            ));
        }
        match ty {
            Type::Void => Err(CmirError::ty("void has no size", Span::synthetic())),
            Type::Bool => Ok(Layout::new(1, 1)),
            Type::Int(k) => {
                let s = k.size();
                // i386: 8-byte integers are only 4-byte aligned.
                let a = s.min(4);
                Ok(Layout::new(s, a))
            }
            Type::Ptr(..) => Ok(Layout::new(PTR_SIZE, PTR_SIZE)),
            Type::Array(inner, n) => {
                let el = self.layout_of_depth(inner, depth + 1)?;
                Ok(Layout::new(el.size * n, el.align))
            }
            Type::Struct(name) | Type::Union(name) => {
                let def = self.program.composite(name).ok_or_else(|| {
                    CmirError::ty(format!("undefined composite `{name}`"), Span::synthetic())
                })?;
                self.composite_layout(def, depth)
            }
            // A function type only ever appears as the target of a pointer
            // (KC's `fnptr(...)` syntax denotes a function pointer), so its
            // stored representation is pointer-sized.
            Type::Func(_) => Ok(Layout::new(PTR_SIZE, PTR_SIZE)),
            Type::Named(n) => {
                let resolved = self.program.resolve_type(ty);
                if matches!(resolved, Type::Named(m) if m == n) {
                    return Err(CmirError::ty(
                        format!("undefined typedef `{n}`"),
                        Span::synthetic(),
                    ));
                }
                self.layout_of_depth(resolved, depth + 1)
            }
        }
    }

    fn composite_layout(&self, def: &CompositeDef, depth: u32) -> Result<Layout> {
        let mut size: u64 = 0;
        let mut align: u64 = 1;
        for field in &def.fields {
            let fl = self.layout_of_depth(&field.ty, depth + 1)?;
            align = align.max(fl.align);
            if def.is_union {
                size = size.max(fl.size);
            } else {
                size = round_up(size, fl.align) + fl.size;
            }
        }
        if size == 0 {
            size = 1;
        }
        Ok(Layout::new(round_up(size, align), align))
    }

    /// Computes the byte offset of `field` within the composite type `name`.
    ///
    /// For unions every field is at offset zero.
    pub fn field_offset(&self, name: &str, field: &str) -> Result<u64> {
        let def = self.program.composite(name).ok_or_else(|| {
            CmirError::ty(format!("undefined composite `{name}`"), Span::synthetic())
        })?;
        if def.is_union {
            if def.field(field).is_some() {
                return Ok(0);
            }
            return Err(CmirError::ty(
                format!("union `{name}` has no field `{field}`"),
                Span::synthetic(),
            ));
        }
        let mut off: u64 = 0;
        for f in &def.fields {
            let fl = self.layout_of(&f.ty)?;
            off = round_up(off, fl.align);
            if f.name == field {
                return Ok(off);
            }
            off += fl.size;
        }
        Err(CmirError::ty(
            format!("struct `{name}` has no field `{field}`"),
            Span::synthetic(),
        ))
    }

    /// Size of a type in bytes (convenience wrapper over [`Self::layout_of`]).
    pub fn size_of(&self, ty: &Type) -> Result<u64> {
        Ok(self.layout_of(ty)?.size)
    }

    /// Resolves a byte offset within a value of type `ty` to the chain of
    /// `(composite, field)` pairs whose storage covers that offset,
    /// outermost first. Arrays are transparent (the offset is folded into
    /// the element); every union arm covering the offset is included.
    ///
    /// The dynamic soundness oracle uses this to enumerate the field-level
    /// abstract locations a concrete address inside a global or heap object
    /// may legitimately stand for.
    pub fn field_path_at(&self, ty: &Type, offset: u64) -> Vec<(String, String)> {
        let mut out = Vec::new();
        self.field_path_at_depth(ty, offset, 0, &mut out);
        out
    }

    fn field_path_at_depth(
        &self,
        ty: &Type,
        offset: u64,
        depth: u32,
        out: &mut Vec<(String, String)>,
    ) {
        if depth > 64 {
            return;
        }
        match self.program.resolve_type(ty) {
            Type::Array(inner, n) => {
                let Ok(el) = self.layout_of(inner) else {
                    return;
                };
                if el.size == 0 || offset >= el.size * n {
                    return;
                }
                self.field_path_at_depth(inner, offset % el.size, depth + 1, out);
            }
            Type::Struct(name) => {
                let Some(def) = self.program.composite(name) else {
                    return;
                };
                let name = name.clone();
                let mut off: u64 = 0;
                for f in &def.fields {
                    let Ok(fl) = self.layout_of(&f.ty) else {
                        return;
                    };
                    off = round_up(off, fl.align);
                    if offset >= off && offset < off + fl.size {
                        out.push((name.clone(), f.name.clone()));
                        let fty = f.ty.clone();
                        self.field_path_at_depth(&fty, offset - off, depth + 1, out);
                        return;
                    }
                    off += fl.size;
                }
            }
            Type::Union(name) => {
                let Some(def) = self.program.composite(name) else {
                    return;
                };
                let name = name.clone();
                let fields: Vec<_> = def.fields.clone();
                for f in &fields {
                    let Ok(fl) = self.layout_of(&f.ty) else {
                        continue;
                    };
                    if offset < fl.size {
                        out.push((name.clone(), f.name.clone()));
                        self.field_path_at_depth(&f.ty, offset, depth + 1, out);
                    }
                }
            }
            _ => {}
        }
    }
}

/// Rounds `v` up to the next multiple of `align` (which must be a power of
/// two or 1; callers only pass layout alignments).
pub fn round_up(v: u64, align: u64) -> u64 {
    if align <= 1 {
        return v;
    }
    v.div_ceil(align) * align
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{BoundExpr, Field};

    fn program_with_structs() -> Program {
        let mut p = Program::new();
        p.add_composite(CompositeDef::strukt(
            "sk_buff",
            vec![
                Field::new("len", Type::u32()),
                Field::new("proto", Type::u8()),
                Field::new("data", Type::ptr_count(Type::u8(), BoundExpr::field("len"))),
            ],
        ));
        p.add_composite(CompositeDef::union(
            "payload",
            vec![
                Field::new("word", Type::u64()),
                Field::new("bytes", Type::Array(Box::new(Type::u8()), 12)),
            ],
        ));
        std::sync::Arc::make_mut(&mut p.typedefs).push(("size_t".into(), Type::u32()));
        p
    }

    #[test]
    fn scalar_layouts() {
        let p = Program::new();
        let ctx = LayoutCtx::new(&p);
        assert_eq!(ctx.layout_of(&Type::u8()).unwrap(), Layout::new(1, 1));
        assert_eq!(ctx.layout_of(&Type::u32()).unwrap(), Layout::new(4, 4));
        // i386: 64-bit ints are 4-byte aligned.
        assert_eq!(ctx.layout_of(&Type::u64()).unwrap(), Layout::new(8, 4));
        assert_eq!(
            ctx.layout_of(&Type::ptr(Type::Void)).unwrap(),
            Layout::new(4, 4)
        );
    }

    #[test]
    fn struct_layout_with_padding() {
        let p = program_with_structs();
        let ctx = LayoutCtx::new(&p);
        // len(4) + proto(1) + pad(3) + data(4) = 12, align 4.
        let l = ctx.layout_of(&Type::Struct("sk_buff".into())).unwrap();
        assert_eq!(l, Layout::new(12, 4));
        assert_eq!(ctx.field_offset("sk_buff", "len").unwrap(), 0);
        assert_eq!(ctx.field_offset("sk_buff", "proto").unwrap(), 4);
        assert_eq!(ctx.field_offset("sk_buff", "data").unwrap(), 8);
    }

    #[test]
    fn union_layout_is_max_member() {
        let p = program_with_structs();
        let ctx = LayoutCtx::new(&p);
        let l = ctx.layout_of(&Type::Union("payload".into())).unwrap();
        assert_eq!(l.size, 12);
        assert_eq!(l.align, 4);
        assert_eq!(ctx.field_offset("payload", "bytes").unwrap(), 0);
    }

    #[test]
    fn typedef_resolution() {
        let p = program_with_structs();
        let ctx = LayoutCtx::new(&p);
        assert_eq!(ctx.size_of(&Type::Named("size_t".into())).unwrap(), 4);
        assert!(ctx.size_of(&Type::Named("missing".into())).is_err());
    }

    #[test]
    fn array_layout() {
        let p = Program::new();
        let ctx = LayoutCtx::new(&p);
        let l = ctx
            .layout_of(&Type::Array(Box::new(Type::u32()), 16))
            .unwrap();
        assert_eq!(l, Layout::new(64, 4));
    }

    #[test]
    fn errors_for_unsized() {
        let p = Program::new();
        let ctx = LayoutCtx::new(&p);
        assert!(ctx.layout_of(&Type::Void).is_err());
        assert!(ctx.layout_of(&Type::Struct("nope".into())).is_err());
    }

    #[test]
    fn field_path_resolution() {
        let mut p = program_with_structs();
        p.add_composite(CompositeDef::strukt(
            "ring",
            vec![
                Field::new("id", Type::u32()),
                Field::new(
                    "bufs",
                    Type::Array(Box::new(Type::Struct("sk_buff".into())), 4),
                ),
            ],
        ));
        let ctx = LayoutCtx::new(&p);
        let sk = Type::Struct("sk_buff".into());
        assert_eq!(
            ctx.field_path_at(&sk, 0),
            vec![("sk_buff".to_string(), "len".to_string())]
        );
        assert_eq!(
            ctx.field_path_at(&sk, 8),
            vec![("sk_buff".to_string(), "data".to_string())]
        );
        // Padding bytes resolve to no field.
        assert!(ctx.field_path_at(&sk, 5).is_empty());
        // Nested array-of-struct: offset folds into the element.
        let ring = Type::Struct("ring".into());
        assert_eq!(
            ctx.field_path_at(&ring, 4 + 12 + 8),
            vec![
                ("ring".to_string(), "bufs".to_string()),
                ("sk_buff".to_string(), "data".to_string())
            ]
        );
        // Unions: every covering arm is reported.
        let u = Type::Union("payload".into());
        let arms = ctx.field_path_at(&u, 0);
        assert!(arms.contains(&("payload".to_string(), "word".to_string())));
        assert!(arms.contains(&("payload".to_string(), "bytes".to_string())));
    }

    #[test]
    fn round_up_behaviour() {
        assert_eq!(round_up(0, 4), 0);
        assert_eq!(round_up(1, 4), 4);
        assert_eq!(round_up(4, 4), 4);
        assert_eq!(round_up(5, 1), 5);
        assert_eq!(round_up(17, 16), 32);
    }
}
