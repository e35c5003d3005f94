//! Derivation traces for points-to facts.
//!
//! The points-to solver, when provenance is enabled, records into a
//! [`ProvStore`]: an append-only arena of [`Step`]s — compact u32 triples
//! `(dst, pointee, src)` keyed by the solver's location interner — plus a
//! justification table for the dynamically discovered copy edges (loads,
//! stores, indirect-call bindings). Exactly one step is recorded per
//! derived fact, the *first* derivation the solver found, so extracting
//! `why(dst, pointee)` is a deterministic backward walk from the fact to
//! its seed constraint: a shortest-by-construction chain, since every
//! premise step was recorded before its conclusion (the arena is causally
//! ordered — an invariant the replay verifier in `ivy-analysis` checks).
//!
//! This crate deliberately has **no dependencies** (not even the vendored
//! serde shims) and knows nothing about `Loc` or constraints: it stores
//! and walks u32 ids only, so `ivy-analysis` can depend on it without a
//! cycle. Rendering ids back to human-readable locations is the
//! interner's job.

#![warn(missing_docs)]

use std::collections::HashMap;

/// Sentinel `src` marking a fact introduced by an `AddrOf` seed
/// constraint rather than derived from another fact.
pub const SEED: u32 = u32::MAX;

/// Why a dynamic copy edge `u -> v` exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// `dst = *src`: the edge copies out of a pointee of `src`.
    Load,
    /// `*dst = src`: the edge copies into a pointee of `dst`.
    Store,
    /// A parameter or return binding of an indirect call site, created
    /// when the callee expression was resolved to a function.
    CallBind,
}

impl EdgeKind {
    /// Stable lower-case name used in serialized chains.
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::Load => "load",
            EdgeKind::Store => "store",
            EdgeKind::CallBind => "call-bind",
        }
    }
}

/// One derived fact: `dst` points to `pointee` because `src` points to
/// `pointee` (and an edge `src -> dst` exists), or because of a seed
/// constraint when `src == SEED`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// The location the fact is about.
    pub dst: u32,
    /// The pointee the fact adds to `dst`'s set.
    pub pointee: u32,
    /// The premise location the pointee flowed from, or [`SEED`].
    pub src: u32,
}

/// Justification for a dynamic copy edge `u -> v`: the fact
/// `(trigger, aux)` whose discovery spawned the edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeProv {
    /// The location whose points-to fact spawned the edge (the pointer
    /// being loaded through / stored through / called through).
    pub trigger: u32,
    /// The pointee of `trigger` that the edge routes through (the
    /// dereferenced target, or the bound function for call edges).
    pub aux: u32,
    /// Which solver rule created the edge.
    pub kind: EdgeKind,
}

/// One link of an extracted derivation chain, seed first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainStep {
    /// The fact this link establishes: `dst` points to the chain's target.
    pub dst: u32,
    /// The pointee the whole chain is about.
    pub pointee: u32,
    /// The premise location (`SEED` for the first link).
    pub src: u32,
    /// For links that crossed a *dynamic* copy edge, the edge's
    /// justification; `None` for seed links and static `Copy` edges.
    pub edge: Option<EdgeProv>,
}

fn pack(a: u32, b: u32) -> u64 {
    ((a as u64) << 32) | b as u64
}

/// The append-only derivation arena.
///
/// `record_fact` is first-insert-wins: the solver only records elements
/// that are genuinely fresh in a set, so each fact gets exactly one step —
/// its earliest derivation.
#[derive(Debug, Default)]
pub struct ProvStore {
    steps: Vec<Step>,
    /// `(dst, pointee)` packed -> index into `steps`.
    fact_index: HashMap<u64, u32>,
    /// `(u, v)` packed -> why the dynamic edge `u -> v` exists.
    edges: HashMap<u64, EdgeProv>,
}

impl ProvStore {
    /// An empty store.
    pub fn new() -> ProvStore {
        ProvStore::default()
    }

    /// Records a derived fact; the first derivation of a fact wins and
    /// later recordings of the same `(dst, pointee)` are ignored.
    pub fn record_fact(&mut self, dst: u32, pointee: u32, src: u32) {
        let key = pack(dst, pointee);
        if let std::collections::hash_map::Entry::Vacant(e) = self.fact_index.entry(key) {
            let idx = self.steps.len() as u32;
            self.steps.push(Step { dst, pointee, src });
            e.insert(idx);
        }
    }

    /// Records why a dynamic copy edge `u -> v` exists (first wins).
    pub fn record_edge(&mut self, u: u32, v: u32, trigger: u32, aux: u32, kind: EdgeKind) {
        self.edges
            .entry(pack(u, v))
            .or_insert(EdgeProv { trigger, aux, kind });
    }

    /// Arena index of the step that derived `(dst, pointee)`, if recorded.
    pub fn index_of(&self, dst: u32, pointee: u32) -> Option<u32> {
        self.fact_index.get(&pack(dst, pointee)).copied()
    }

    /// The step at an arena index.
    pub fn step(&self, idx: u32) -> Option<Step> {
        self.steps.get(idx as usize).copied()
    }

    /// All recorded steps in arena (causal) order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Justification for the dynamic edge `u -> v`, if one was recorded.
    pub fn edge_prov(&self, u: u32, v: u32) -> Option<EdgeProv> {
        self.edges.get(&pack(u, v)).copied()
    }

    /// Number of recorded facts.
    pub fn facts(&self) -> usize {
        self.steps.len()
    }

    /// Number of recorded dynamic-edge justifications.
    pub fn dyn_edges(&self) -> usize {
        self.edges.len()
    }

    /// Approximate resident size of the arena in bytes (steps plus index
    /// plus edge table) — what the `stats` verb reports as
    /// `provenance_bytes`.
    pub fn bytes(&self) -> usize {
        self.steps.len() * std::mem::size_of::<Step>()
            + self.fact_index.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>())
            + self.edges.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<EdgeProv>())
    }

    /// Extracts the derivation chain for the fact `dst points-to pointee`,
    /// seed constraint first. `None` when no step was recorded for the
    /// fact. The walk is deterministic (each fact has exactly one step)
    /// and guarded against malformed cycles, which the causal-ordering
    /// invariant rules out for solver-produced stores.
    pub fn why(&self, dst: u32, pointee: u32) -> Option<Vec<ChainStep>> {
        let mut chain = Vec::new();
        let mut seen = std::collections::HashSet::new();
        let mut cur = dst;
        loop {
            if !seen.insert(cur) {
                return None; // malformed store: derivation cycle
            }
            let idx = self.index_of(cur, pointee)?;
            let step = self.steps[idx as usize];
            let edge = if step.src == SEED {
                None
            } else {
                self.edge_prov(step.src, step.dst)
            };
            chain.push(ChainStep {
                dst: step.dst,
                pointee,
                src: step.src,
                edge,
            });
            if step.src == SEED {
                break;
            }
            cur = step.src;
        }
        chain.reverse();
        Some(chain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_derivation_wins_and_chains_walk_to_the_seed() {
        let mut p = ProvStore::new();
        // Seed: a -> x. Copy: b gets x from a. Copy: c gets x from b.
        p.record_fact(0, 10, SEED);
        p.record_fact(1, 10, 0);
        p.record_fact(2, 10, 1);
        // A later rediscovery of the same fact must not displace the first.
        p.record_fact(1, 10, 2);
        assert_eq!(p.facts(), 3);
        assert_eq!(p.step(p.index_of(1, 10).unwrap()).unwrap().src, 0);

        let chain = p.why(2, 10).expect("recorded fact has a chain");
        assert_eq!(chain.len(), 3);
        assert_eq!(chain[0].src, SEED);
        assert_eq!(chain[0].dst, 0);
        assert_eq!(chain[1].dst, 1);
        assert_eq!(chain[2].dst, 2);
        // Premise indices are strictly below conclusion indices.
        for w in chain.windows(2) {
            assert!(p.index_of(w[0].dst, 10).unwrap() < p.index_of(w[1].dst, 10).unwrap());
        }
        assert!(p.why(7, 10).is_none(), "unrecorded facts have no chain");
    }

    #[test]
    fn dynamic_edges_annotate_the_links_that_crossed_them() {
        let mut p = ProvStore::new();
        p.record_fact(0, 10, SEED);
        p.record_edge(0, 1, 5, 9, EdgeKind::Load);
        p.record_fact(1, 10, 0);
        let chain = p.why(1, 10).unwrap();
        assert_eq!(chain[0].edge, None);
        let e = chain[1].edge.expect("dynamic link carries its edge");
        assert_eq!((e.trigger, e.aux), (5, 9));
        assert_eq!(e.kind, EdgeKind::Load);
        assert_eq!(e.kind.name(), "load");
        // Edge justifications are first-wins too.
        p.record_edge(0, 1, 6, 6, EdgeKind::Store);
        assert_eq!(p.edge_prov(0, 1).unwrap().trigger, 5);
    }
}
