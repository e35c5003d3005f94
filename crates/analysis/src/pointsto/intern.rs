//! Location interning: dense `u32` ids for abstract locations.
//!
//! The constraint generator never builds a [`Loc`]. It interns each name
//! it meets (function, variable, composite, field) into a symbol table
//! once, describes a location as a [`LocKey`] — a small integer tuple over
//! those symbols — and interns the key to a dense location id as it emits
//! the constraint that mentions it. The solvers see only ids: constraints
//! are integer pairs and points-to sets are sorted `Vec<u32>`s. A `Loc` is
//! built only when a caller asks for one ([`LocInterner::resolve`]), and a
//! `Loc` query maps back to its id without allocating
//! ([`LocInterner::lookup`]).
//!
//! The interner is append-only — ids and symbols stay valid for its
//! lifetime — which is what lets a [`ConstraintCache`] (see the parent
//! module) keep interned constraint batches across programs and hand out
//! results that answer `Loc` queries from their interned sets.
//!
//! [`Loc`]: super::Loc
//! [`ConstraintCache`]: super::ConstraintCache

use super::Loc;
use ivy_cmir::content::FnvHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::{Mutex, MutexGuard};

/// A `HashMap` under the deterministic FNV hasher: the interner's keys are
/// short names and integer tuples, for which SipHash is needlessly slow.
pub(crate) type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

/// The dense id of a name in the interner's symbol table.
pub(crate) type Sym = u32;

/// An abstract location as the interner keys it: [`Loc`] with every name
/// replaced by its symbol. Two keys are equal exactly when the `Loc`s they
/// stand for are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum LocKey {
    /// [`Loc::Global`].
    Global(Sym),
    /// [`Loc::Local`].
    Local { func: Sym, var: Sym },
    /// [`Loc::Field`].
    Field { composite: Sym, field: Sym },
    /// [`Loc::Composite`].
    Composite(Sym),
    /// [`Loc::Alloc`] with site `func#index`.
    Alloc { func: Sym, index: u32 },
    /// [`Loc::Func`].
    Func(Sym),
    /// [`Loc::Ret`].
    Ret(Sym),
    /// [`Loc::Temp`].
    Temp { func: Sym, id: u32 },
}

/// An append-only symbol table plus the bidirectional map
/// [`LocKey`] ↔ dense `u32` location id.
#[derive(Debug, Default)]
pub(crate) struct LocInterner {
    syms: FnvMap<Box<str>, Sym>,
    names: Vec<Box<str>>,
    ids: FnvMap<LocKey, u32>,
    keys: Vec<LocKey>,
}

impl LocInterner {
    /// The symbol of `name`, allocating the next one on first sight.
    pub(crate) fn sym(&mut self, name: &str) -> Sym {
        if let Some(&sym) = self.syms.get(name) {
            return sym;
        }
        let sym = u32::try_from(self.names.len()).expect("fewer than 2^32 names");
        self.syms.insert(name.into(), sym);
        self.names.push(name.into());
        sym
    }

    /// The name behind a symbol.
    pub(crate) fn name(&self, sym: Sym) -> &str {
        &self.names[sym as usize]
    }

    /// The id of `key`, allocating the next dense id on first sight.
    pub(crate) fn intern(&mut self, key: LocKey) -> u32 {
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let id = u32::try_from(self.keys.len()).expect("fewer than 2^32 abstract locations");
        self.ids.insert(key, id);
        self.keys.push(key);
        id
    }

    /// The key behind an id. Ids come from [`LocInterner::intern`], so
    /// this cannot fail for ids produced by the same interner.
    pub(crate) fn key(&self, id: u32) -> LocKey {
        self.keys[id as usize]
    }

    /// The `Loc` behind an id, built afresh.
    pub(crate) fn resolve(&self, id: u32) -> Loc {
        let name = |sym: Sym| self.name(sym).to_string();
        match self.key(id) {
            LocKey::Global(g) => Loc::Global(name(g)),
            LocKey::Local { func, var } => Loc::Local {
                func: name(func),
                var: name(var),
            },
            LocKey::Field { composite, field } => Loc::Field {
                composite: name(composite),
                field: name(field),
            },
            LocKey::Composite(c) => Loc::Composite(name(c)),
            LocKey::Alloc { func, index } => Loc::Alloc {
                site: format!("{}#{index}", self.name(func)),
            },
            LocKey::Func(f) => Loc::Func(name(f)),
            LocKey::Ret(f) => Loc::Ret(name(f)),
            LocKey::Temp { func, id } => Loc::Temp {
                func: name(func),
                id,
            },
        }
    }

    /// The id of `loc` if it has already been interned, without
    /// allocating.
    pub(crate) fn lookup(&self, loc: &Loc) -> Option<u32> {
        let sym = |name: &str| self.syms.get(name).copied();
        let key = match loc {
            Loc::Global(g) => LocKey::Global(sym(g)?),
            Loc::Local { func, var } => LocKey::Local {
                func: sym(func)?,
                var: sym(var)?,
            },
            Loc::Field { composite, field } => LocKey::Field {
                composite: sym(composite)?,
                field: sym(field)?,
            },
            Loc::Composite(c) => LocKey::Composite(sym(c)?),
            Loc::Alloc { site } => {
                // The inverse of `resolve`'s `func#index`: the index is
                // the canonical decimal after the last `#`.
                let (func, index) = site.rsplit_once('#')?;
                let parsed: u32 = index.parse().ok()?;
                if parsed.to_string() != index {
                    return None;
                }
                LocKey::Alloc {
                    func: sym(func)?,
                    index: parsed,
                }
            }
            Loc::Func(f) => LocKey::Func(sym(f)?),
            Loc::Ret(f) => LocKey::Ret(sym(f)?),
            Loc::Temp { func, id } => LocKey::Temp {
                func: sym(func)?,
                id: *id,
            },
        };
        self.ids.get(&key).copied()
    }

    /// Number of interned locations (== the exclusive upper bound of ids).
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }
}

/// A shareable, append-only interner: owned jointly by a
/// [`ConstraintCache`](super::ConstraintCache) and every
/// [`PointsToResult`](super::PointsToResult) it produced, so results can
/// resolve `Loc` queries long after the solve finished.
#[derive(Debug, Default)]
pub(crate) struct SharedInterner {
    inner: Mutex<LocInterner>,
}

impl SharedInterner {
    /// Exclusive access for interning and resolving.
    pub(crate) fn lock(&self) -> MutexGuard<'_, LocInterner> {
        self.inner.lock().expect("interner poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable_and_dense() {
        let mut i = LocInterner::default();
        let a = i.sym("a");
        let b = i.sym("b");
        let ia = i.intern(LocKey::Global(a));
        let ib = i.intern(LocKey::Func(b));
        assert_eq!((ia, ib), (0, 1));
        assert_eq!(
            i.intern(LocKey::Global(a)),
            ia,
            "re-interning returns the same id"
        );
        assert_eq!(i.resolve(ib), Loc::Func("b".into()));
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn every_loc_shape_round_trips_through_lookup() {
        let mut i = LocInterner::default();
        let (f, x, s) = (i.sym("f"), i.sym("x"), i.sym("s"));
        let keys = [
            LocKey::Global(x),
            LocKey::Local { func: f, var: x },
            LocKey::Field {
                composite: s,
                field: x,
            },
            LocKey::Composite(s),
            LocKey::Alloc { func: f, index: 12 },
            LocKey::Func(f),
            LocKey::Ret(f),
            LocKey::Temp { func: f, id: 3 },
        ];
        for key in keys {
            let id = i.intern(key);
            assert_eq!(i.lookup(&i.resolve(id)), Some(id), "{key:?}");
        }
        let alloc = i.intern(keys[4]);
        assert_eq!(i.resolve(alloc).to_string(), "alloc@f#12");
        // Sites that only look like an interned one stay unknown.
        for site in ["f#012", "f#+12", "f12", "g#12"] {
            let loc = Loc::Alloc { site: site.into() };
            assert_eq!(i.lookup(&loc), None, "{site}");
        }
        assert_eq!(i.lookup(&Loc::Global("unseen".into())), None);
    }
}
