//! The incremental diagnostic cache.
//!
//! Results are keyed by `(checker, definitions hash, context
//! fingerprint)`: the definitions hash covers every definition of the
//! function's name ([`QueryDb::definitions`](crate::QueryDb::definitions)),
//! the fingerprint covers whatever else the checker declared
//! (configuration, type environment, points-to facts, caller context).
//! After an edit, only the edited functions and those whose fingerprint
//! changed miss; an unchanged program is served entirely from cache. The
//! cache is shared — across repeated runs, across
//! the analyze→fix→re-analyze pipeline loop, and across corpus variants,
//! where generated kernels share most of their functions and therefore most
//! of their cache entries.

use crate::diag::Diagnostic;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};

/// Cache key: checker name, hash of the function's definitions, checker
/// context fingerprint.
pub type CacheKey = (&'static str, u64, u64);

/// Shared, thread-safe diagnostic cache with hit/miss accounting.
#[derive(Default)]
pub struct DiagnosticCache {
    map: RwLock<HashMap<CacheKey, Arc<Vec<Diagnostic>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl DiagnosticCache {
    /// An empty cache.
    pub fn new() -> DiagnosticCache {
        DiagnosticCache::default()
    }

    /// Looks up a result, counting the outcome.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Vec<Diagnostic>>> {
        let found = self
            .map
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a computed result.
    pub fn put(&self, key: CacheKey, diags: Vec<Diagnostic>) -> Arc<Vec<Diagnostic>> {
        let value = Arc::new(diags);
        self.map
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key, value.clone());
        value
    }

    /// Lifetime hits (all runs sharing this cache).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime misses.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cached entry count.
    pub fn len(&self) -> usize {
        self.map
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry and resets the counters.
    pub fn clear(&self) {
        self.map
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_hits_and_misses() {
        let cache = DiagnosticCache::new();
        let key = ("test", 1, 2);
        assert!(cache.get(&key).is_none());
        cache.put(key, Vec::new());
        assert!(cache.get(&key).is_some());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        cache.clear();
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 0, 0));
    }
}
