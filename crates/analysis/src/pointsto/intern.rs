//! Location interning: dense `u32` ids for [`Loc`]s.
//!
//! The worklist solver never touches a `Loc` (or its heap-allocated
//! strings) on the hot path: every abstract location is interned to a dense
//! id once, constraints become integer triples, and points-to sets become
//! sorted `Vec<u32>`s. The interner is append-only — ids stay valid for the
//! lifetime of the interner — which is what lets a [`ConstraintCache`]
//! (see the parent module) keep interned constraint batches across programs
//! and hand out results that answer `Loc` queries from their interned sets.
//!
//! [`Loc`]: super::Loc
//! [`ConstraintCache`]: super::ConstraintCache

use super::Loc;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// A bidirectional, append-only map `Loc` ↔ dense `u32` id.
#[derive(Debug, Default)]
pub(crate) struct LocInterner {
    ids: HashMap<Loc, u32>,
    locs: Vec<Loc>,
}

impl LocInterner {
    /// The id of `loc`, allocating the next dense id on first sight.
    pub(crate) fn intern(&mut self, loc: &Loc) -> u32 {
        if let Some(&id) = self.ids.get(loc) {
            return id;
        }
        let id = u32::try_from(self.locs.len()).expect("fewer than 2^32 abstract locations");
        self.ids.insert(loc.clone(), id);
        self.locs.push(loc.clone());
        id
    }

    /// The `Loc` behind an id. Ids come from [`LocInterner::intern`], so
    /// this cannot fail for ids produced by the same interner.
    pub(crate) fn resolve(&self, id: u32) -> &Loc {
        &self.locs[id as usize]
    }

    /// The id of `loc` if it has already been interned, without allocating.
    pub(crate) fn lookup(&self, loc: &Loc) -> Option<u32> {
        self.ids.get(loc).copied()
    }

    /// Number of interned locations (== the exclusive upper bound of ids).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.locs.len()
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
        let a = Loc::Global("a".into());
        let b = Loc::Func("b".into());
        let ia = i.intern(&a);
        let ib = i.intern(&b);
        assert_eq!((ia, ib), (0, 1));
        assert_eq!(i.intern(&a), ia, "re-interning returns the same id");
        assert_eq!(i.resolve(ib), &b);
        assert_eq!(i.len(), 2);
    }
}
