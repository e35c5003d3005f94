//! [`Functions`]: the function list of a [`Program`](crate::ast::Program),
//! shared structurally between program states.
//!
//! Every function sits behind an [`Arc`], so cloning a program (or
//! re-parsing one function of it) copies pointers, not bodies: two program
//! states share every function neither of them changed. A write goes
//! through [`Arc::make_mut`] and clones only the function it touches
//! (copy-on-write), so a program still behaves like a value.
//!
//! Name lookups go through one index, built on first use and shared by
//! clones. It keeps the first definition of every name. Any write that
//! could rename a function drops the index; the next lookup rebuilds it.

use crate::ast::Function;
use crate::content::FnvHasher;
use std::hash::Hasher;
use std::ops::{Index, IndexMut};
use std::sync::{Arc, OnceLock};

/// The functions of a program, in program order (see the module docs).
#[derive(Clone, Default)]
pub struct Functions {
    items: Vec<Arc<Function>>,
    /// `(name hash, position)` of every function, sorted, so the
    /// definitions of one name sit together in program order.
    index: OnceLock<Arc<Vec<(u64, u32)>>>,
}

fn name_hash(name: &str) -> u64 {
    let mut h = FnvHasher::default();
    h.write(name.as_bytes());
    h.finish()
}

impl Functions {
    /// An empty list.
    pub fn new() -> Functions {
        Functions::default()
    }

    /// Number of functions.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if there are no functions.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The functions in program order.
    pub fn iter(&self) -> Iter<'_> {
        Iter(self.items.iter())
    }

    /// Each name's first definition (the one a lookup by name finds), in
    /// program order.
    pub fn first_definitions(&self) -> impl Iterator<Item = &Function> {
        self.iter()
            .enumerate()
            .filter(|(i, f)| self.position(&f.name) == Some(*i))
            .map(|(_, f)| f)
    }

    /// The shared handles, in program order.
    pub fn arcs(&self) -> &[Arc<Function>] {
        &self.items
    }

    /// The position of the first function named `name`.
    pub fn position(&self, name: &str) -> Option<usize> {
        let index = self.index.get_or_init(|| {
            let mut index: Vec<(u64, u32)> = self
                .items
                .iter()
                .enumerate()
                .map(|(i, f)| (name_hash(&f.name), i as u32))
                .collect();
            index.sort_unstable();
            Arc::new(index)
        });
        let hash = name_hash(name);
        let start = index.partition_point(|&(h, _)| h < hash);
        index[start..]
            .iter()
            .take_while(|&&(h, _)| h == hash)
            .map(|&(_, i)| i as usize)
            .find(|&i| self.items[i].name == name)
    }

    /// The first function named `name`, as its shared handle.
    pub fn get_arc(&self, name: &str) -> Option<&Arc<Function>> {
        self.position(name).map(|i| &self.items[i])
    }

    /// Replaces the function at `index`. The name index survives when
    /// the name does.
    pub fn set(&mut self, index: usize, f: Arc<Function>) {
        if f.name != self.items[index].name {
            self.index = OnceLock::new();
        }
        self.items[index] = f;
    }

    /// Appends a function. A built name index takes the new entry in
    /// place, so building a program by lookups and appends stays linear
    /// per append.
    pub fn push(&mut self, f: Function) {
        if let Some(index) = self.index.get_mut() {
            let entry = (name_hash(&f.name), self.items.len() as u32);
            let index = Arc::make_mut(index);
            index.insert(index.partition_point(|e| *e < entry), entry);
        }
        self.items.push(Arc::new(f));
    }

    /// Keeps only the functions `keep` accepts.
    pub fn retain(&mut self, mut keep: impl FnMut(&Function) -> bool) {
        self.index = OnceLock::new();
        self.items.retain(|f| keep(f));
    }
}

impl std::fmt::Debug for Functions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl PartialEq for Functions {
    fn eq(&self, other: &Functions) -> bool {
        self.len() == other.len()
            && self
                .items
                .iter()
                .zip(&other.items)
                .all(|(a, b)| Arc::ptr_eq(a, b) || a == b)
    }
}

impl Index<usize> for Functions {
    type Output = Function;

    fn index(&self, index: usize) -> &Function {
        &self.items[index]
    }
}

impl IndexMut<usize> for Functions {
    /// Unshares the function first; drops the name index, since the
    /// caller may rename it.
    fn index_mut(&mut self, index: usize) -> &mut Function {
        self.index = OnceLock::new();
        Arc::make_mut(&mut self.items[index])
    }
}

impl FromIterator<Function> for Functions {
    fn from_iter<I: IntoIterator<Item = Function>>(iter: I) -> Functions {
        Functions {
            items: iter.into_iter().map(Arc::new).collect(),
            index: OnceLock::new(),
        }
    }
}

impl FromIterator<Arc<Function>> for Functions {
    fn from_iter<I: IntoIterator<Item = Arc<Function>>>(iter: I) -> Functions {
        Functions {
            items: iter.into_iter().collect(),
            index: OnceLock::new(),
        }
    }
}

impl<'a> IntoIterator for &'a Functions {
    type Item = &'a Function;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl IntoIterator for Functions {
    type Item = Function;
    type IntoIter =
        std::iter::Map<std::vec::IntoIter<Arc<Function>>, fn(Arc<Function>) -> Function>;

    /// Yields each function, cloning only those another program shares.
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().map(Arc::unwrap_or_clone)
    }
}

/// Iterator over `&Function`, in program order.
#[derive(Clone)]
pub struct Iter<'a>(std::slice::Iter<'a, Arc<Function>>);

impl<'a> Iterator for Iter<'a> {
    type Item = &'a Function;

    fn next(&mut self) -> Option<&'a Function> {
        self.0.next().map(|f| &**f)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl DoubleEndedIterator for Iter<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.0.next_back().map(|f| &**f)
    }
}

impl ExactSizeIterator for Iter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Expr, Stmt};
    use crate::types::Type;

    fn func(name: &str, ret: i64) -> Function {
        Function::new(name, vec![], Type::i32(), vec![Stmt::ret(Expr::int(ret))])
    }

    fn list(fs: Vec<Function>) -> Functions {
        fs.into_iter().collect()
    }

    fn returns(f: &Function) -> &Stmt {
        &f.body.as_ref().expect("defined").stmts[0]
    }

    #[test]
    fn the_first_definition_of_a_name_wins() {
        let fs = list(vec![func("f", 1), func("g", 2), func("f", 3)]);
        assert_eq!(fs.position("f"), Some(0));
        assert_eq!(fs.position("g"), Some(1));
        assert_eq!(fs.position("h"), None);
        assert_eq!(returns(fs.get_arc("f").unwrap()), &Stmt::ret(Expr::int(1)));
    }

    #[test]
    fn the_index_follows_writes_through_index_mut() {
        let mut fs = list(vec![func("f", 1), func("g", 2), func("f", 3)]);
        assert_eq!(fs.position("f"), Some(0));
        fs[0].name = "h".into();
        assert_eq!(fs.position("f"), Some(2), "the next definition takes over");
        assert_eq!(fs.position("h"), Some(0));
        fs[1].name = "g2".into();
        assert_eq!(fs.position("g"), None);
        assert_eq!(fs.position("g2"), Some(1));
    }

    #[test]
    fn a_write_clones_only_the_function_it_touches() {
        let base = list(vec![func("f", 1), func("g", 2)]);
        let mut edited = base.clone();
        edited[1] = func("g", 5);
        assert!(Arc::ptr_eq(&base.arcs()[0], &edited.arcs()[0]));
        assert!(!Arc::ptr_eq(&base.arcs()[1], &edited.arcs()[1]));
        assert_eq!(returns(&base[1]), &Stmt::ret(Expr::int(2)));
        assert_ne!(base, edited);
        edited.set(1, Arc::clone(&base.arcs()[1]));
        assert_eq!(base, edited);
    }

    #[test]
    fn set_keeps_the_index_only_for_the_same_name() {
        let mut fs = list(vec![func("f", 1), func("g", 2)]);
        assert_eq!(fs.position("g"), Some(1));
        fs.set(1, Arc::new(func("g", 7)));
        assert_eq!(fs.position("g"), Some(1));
        fs.set(1, Arc::new(func("k", 7)));
        assert_eq!(fs.position("g"), None);
        assert_eq!(fs.position("k"), Some(1));
    }

    #[test]
    fn push_extends_a_built_index() {
        let mut fs = list(vec![func("f", 1)]);
        assert_eq!(fs.position("f"), Some(0));
        let shared = fs.clone();
        fs.push(func("g", 2));
        fs.push(func("f", 3));
        assert_eq!(fs.position("g"), Some(1));
        assert_eq!(fs.position("f"), Some(0), "the first definition still wins");
        assert_eq!(
            shared.position("g"),
            None,
            "the clone that shared the index keeps its own entries"
        );
    }
}
