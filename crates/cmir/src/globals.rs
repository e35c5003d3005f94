//! [`Globals`]: the global list of a [`Program`](crate::ast::Program),
//! shared between program states, with a name index.
//!
//! The list sits behind one [`Arc`], as it always has: every reader sees
//! it through [`Deref`] as that `Arc`, and writers go through
//! [`Arc::make_mut`] on it. Name lookups go through an index built on
//! first use and shared by clones, like [`Functions`](crate::functions)'s.
//! It keeps the first definition of every name. [`DerefMut`] drops the
//! index, so any write rebuilds it on the next lookup.

use crate::ast::GlobalDef;
use crate::content::FnvHasher;
use std::hash::Hasher;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, OnceLock};

/// The globals of a program, in program order (see the module docs).
#[derive(Clone, Default)]
pub struct Globals {
    items: Arc<Vec<GlobalDef>>,
    /// `(name hash, position)` of every global, sorted.
    index: OnceLock<Arc<Vec<(u64, u32)>>>,
}

fn name_hash(name: &str) -> u64 {
    let mut h = FnvHasher::default();
    h.write(name.as_bytes());
    h.finish()
}

impl Globals {
    /// The first global named `name`.
    pub fn get(&self, name: &str) -> Option<&GlobalDef> {
        let index = self.index.get_or_init(|| {
            let mut index: Vec<(u64, u32)> = self
                .items
                .iter()
                .enumerate()
                .map(|(i, g)| (name_hash(&g.decl.name), i as u32))
                .collect();
            index.sort_unstable();
            Arc::new(index)
        });
        let hash = name_hash(name);
        let start = index.partition_point(|&(h, _)| h < hash);
        index[start..]
            .iter()
            .take_while(|&&(h, _)| h == hash)
            .map(|&(_, i)| &self.items[i as usize])
            .find(|g| g.decl.name == name)
    }
}

impl Deref for Globals {
    type Target = Arc<Vec<GlobalDef>>;

    fn deref(&self) -> &Arc<Vec<GlobalDef>> {
        &self.items
    }
}

impl DerefMut for Globals {
    /// Drops the name index: the caller may rename, add or remove globals.
    fn deref_mut(&mut self) -> &mut Arc<Vec<GlobalDef>> {
        self.index = OnceLock::new();
        &mut self.items
    }
}

impl From<Vec<GlobalDef>> for Globals {
    fn from(items: Vec<GlobalDef>) -> Globals {
        Globals {
            items: Arc::new(items),
            index: OnceLock::new(),
        }
    }
}

impl std::fmt::Debug for Globals {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.items.fmt(f)
    }
}

impl PartialEq for Globals {
    fn eq(&self, other: &Globals) -> bool {
        self.items == other.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Type;

    fn global(name: &str, init: i64) -> GlobalDef {
        GlobalDef::new(name, Type::i32(), Some(crate::ast::Expr::int(init)))
    }

    fn init(g: Option<&GlobalDef>) -> Option<&crate::ast::Expr> {
        g.and_then(|g| g.init.as_ref())
    }

    #[test]
    fn lookups_find_the_first_definition_and_follow_writes() {
        let mut globals = Globals::from(vec![global("a", 1), global("b", 2), global("a", 3)]);
        assert_eq!(init(globals.get("a")), Some(&crate::ast::Expr::int(1)));
        assert!(globals.get("c").is_none());
        let shared = globals.clone();
        Arc::make_mut(&mut globals)[0].decl.name = "c".into();
        assert_eq!(init(globals.get("a")), Some(&crate::ast::Expr::int(3)));
        assert_eq!(init(globals.get("c")), Some(&crate::ast::Expr::int(1)));
        assert_eq!(
            init(shared.get("a")),
            Some(&crate::ast::Expr::int(1)),
            "a clone keeps its own list and index"
        );
        Arc::make_mut(&mut globals).push(global("d", 4));
        assert!(globals.get("d").is_some());
    }
}
