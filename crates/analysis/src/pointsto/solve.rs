//! The worklist solver: difference propagation over the interned
//! constraint graph.
//!
//! Replaces the naive rescan-everything loop with the standard
//! Andersen-style worklist algorithm:
//!
//! * nodes are interned location ids; points-to sets are sorted
//!   `Vec<u32>`s; copy/load/store constraints become integer adjacency
//!   lists — the hot loop never hashes a string or clones a `Loc`;
//! * **difference propagation**: each node keeps a *delta* of locations
//!   added since it was last processed, and only the delta flows along
//!   copy edges (and triggers new edges at load/store constraints). A
//!   location crosses each edge exactly once, so the full-rescan and the
//!   per-edge whole-set clones of the naive solver are both gone;
//! * **online indirect-call resolution**: when a `Loc::Func` first reaches
//!   the points-to set of an indirect call's callee, the argument/return
//!   copy edges for that target are added *inside* the worklist and the
//!   affected sources propagate their current sets immediately. The
//!   fixpoint therefore terminates by construction — the set of nodes and
//!   edges is finite and all operations are monotone — and the seed's
//!   `iterations > 256` soundness bailout is deleted rather than ported.
//!
//! The solver itself never touches the interner: every id it could
//! possibly need — including the parameter/return locations of indirect
//! bind targets — is pre-interned into a [`BindTable`] while the caller
//! holds the shared interner lock. Solves against one
//! [`ConstraintCache`](super::ConstraintCache) therefore run fully in
//! parallel; only generation/interning serializes.
//!
//! The union-find solver (`unify`) and the naive reference reach the same
//! least fixpoint, so all three produce byte-identical sorted output sets.

use super::constraints::{IConstraint, ISite, InternedBatch, ProgramIndex};
use super::intern::{LocInterner, LocKey};
use super::Sensitivity;
use ivy_provenance::{EdgeKind, ProvStore, SEED};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// What the solver hands back: final sets (indexed by location id), the
/// public indirect-call target map, and the solve statistics.
pub(super) struct SolveOutput {
    pub sets: Vec<Vec<u32>>,
    pub indirect_targets: HashMap<(String, String), BTreeSet<String>>,
    pub initial_constraints: usize,
    pub total_constraints: usize,
    pub pops: usize,
    /// Derivation arena recorded during the solve (`None` when provenance
    /// was not requested).
    pub provenance: Option<ProvStore>,
}

/// Everything the solver needs from the interner, pre-resolved so the
/// solve itself can run without holding the interner lock: for every
/// `Loc::Func` id the plan can ever place into a points-to set, the
/// function's name and its argument/return binding ids. Set elements only
/// originate at `AddrOf` seeds, so scanning the plan's `AddrOf` operands
/// covers every function an indirect call can reach.
pub(super) struct BindTable {
    /// `Loc::Func` pointee id → (parameter location ids, return location
    /// id), for the functions the program declares.
    pub(super) funcs: HashMap<u32, (Vec<u32>, u32)>,
    /// `Loc::Func` pointee id → function name.
    pub(super) func_names: HashMap<u32, String>,
    /// Largest id mentioned anywhere in the table.
    pub(super) max_id: u32,
}

impl BindTable {
    /// Builds the table for one solve plan. The caller must hold the
    /// interner exclusively (this phase interns the binding locations).
    /// Parameter and return locations are keyed by the same symbols the
    /// generator uses, so a function a direct call already bound reuses
    /// its ids.
    pub(crate) fn build(
        index: &ProgramIndex<'_>,
        batches: &[Arc<InternedBatch>],
        interner: &mut LocInterner,
    ) -> BindTable {
        let mut max_id = 0u32;
        let mut funcs = HashMap::new();
        let mut func_names = HashMap::new();
        for batch in batches {
            for c in &batch.constraints {
                let IConstraint::AddrOf { loc, .. } = *c else {
                    continue;
                };
                let LocKey::Func(func) = interner.key(loc) else {
                    continue;
                };
                if func_names.contains_key(&loc) {
                    continue;
                }
                let name = interner.name(func).to_string();
                if let Some(f) = index.function(&name) {
                    let params: Vec<u32> = f
                        .params
                        .iter()
                        .map(|p| {
                            let var = interner.sym(&p.name);
                            interner.intern(LocKey::Local { func, var })
                        })
                        .collect();
                    let ret = interner.intern(LocKey::Ret(func));
                    max_id = params.iter().fold(max_id.max(ret), |m, &p| m.max(p));
                    funcs.insert(loc, (params, ret));
                }
                func_names.insert(loc, name);
            }
        }
        BindTable {
            funcs,
            func_names,
            max_id,
        }
    }
}

/// Largest location id a solve plan (or its bind table) references. The
/// per-node tables are sized by this, not by the interner's total history:
/// a long-lived shared cache interns locations from every program it ever
/// saw, and a small program's solve must not pay for that accumulation.
pub(super) fn plan_max_id(batches: &[Arc<InternedBatch>], bind: &BindTable) -> u32 {
    let mut max_id = bind.max_id;
    for batch in batches {
        for c in &batch.constraints {
            let (a, b) = match *c {
                IConstraint::AddrOf { dst, loc } => (dst, loc),
                IConstraint::Copy { dst, src }
                | IConstraint::Load { dst, src }
                | IConstraint::Store { dst, src } => (dst, src),
            };
            max_id = max_id.max(a).max(b);
        }
        for site in &batch.sites {
            max_id = max_id.max(site.callee).max(site.result);
            for &a in &site.args {
                max_id = max_id.max(a);
            }
        }
    }
    max_id
}

/// The static part of a solve plan, installed into a [`Solver`]:
/// flattened indirect sites (indexed by callee node), the deferred
/// `AddrOf` seeds, and the syntax-constraint count.
struct Prepared<'p> {
    sites: Vec<&'p ISite>,
    sites_of: HashMap<u32, Vec<usize>>,
    seeds: Vec<(u32, u32)>,
    initial_constraints: usize,
}

/// Builds the static graph of `batches` into `solver` (adjacency installed
/// and deduped, tables sized) without seeding: no propagation happens
/// before all initial edges exist. Initial edges are pushed without
/// touching the dedup set: `copy_edges` only guards *dynamically*
/// discovered edges against re-insertion (a dynamic edge duplicating a
/// static one merely re-propagates along that one edge, which is sound;
/// tracking every static edge would put a hash insert on the graph-build
/// path of every re-solve).
fn prepare<'p>(solver: &mut Solver, batches: &'p [Arc<InternedBatch>]) -> Prepared<'p> {
    solver.ensure(plan_max_id(batches, solver.bind) as usize + 1);

    let mut seeds: Vec<(u32, u32)> = Vec::new();
    let mut touched: Vec<(u8, u32)> = Vec::new();
    let mut initial_constraints = 0usize;
    for batch in batches {
        initial_constraints += batch.constraints.len();
        for c in &batch.constraints {
            match *c {
                IConstraint::AddrOf { dst, loc } => seeds.push((dst, loc)),
                IConstraint::Copy { dst, src } => {
                    if dst != src {
                        solver.copy_out[src as usize].push(dst);
                        touched.push((0, src));
                    }
                }
                IConstraint::Load { dst, src } => {
                    solver.load_out[src as usize].push(dst);
                    touched.push((1, src));
                }
                IConstraint::Store { dst, src } => {
                    solver.store_out[dst as usize].push(src);
                    touched.push((2, dst));
                }
            }
        }
    }
    solver.total_constraints = initial_constraints;
    // Duplicate static edges would double-propagate every delta crossing
    // them; one sort+dedup pass over the touched adjacency lists is far
    // cheaper than per-edge hashing (and than scanning every node).
    touched.sort_unstable();
    touched.dedup();
    for (kind, node) in touched {
        let adj = match kind {
            0 => &mut solver.copy_out[node as usize],
            1 => &mut solver.load_out[node as usize],
            _ => &mut solver.store_out[node as usize],
        };
        adj.sort_unstable();
        adj.dedup();
    }

    // Indirect sites, indexed by callee node.
    let sites: Vec<&ISite> = batches.iter().flat_map(|b| b.sites.iter()).collect();
    let mut sites_of: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, site) in sites.iter().enumerate() {
        sites_of.entry(site.callee).or_default().push(i);
    }

    Prepared {
        sites,
        sites_of,
        seeds,
        initial_constraints,
    }
}

/// Materializes the public output of a finished solve: the indirect-call
/// target map exactly as the naive reference builds it (an entry exists
/// for every site, even when empty), plus the final sets and statistics.
fn finish(solver: Solver, prep: &Prepared) -> SolveOutput {
    let mut indirect_targets: HashMap<(String, String), BTreeSet<String>> = HashMap::new();
    for site in &prep.sites {
        let targets: BTreeSet<String> = solver.sets[site.callee as usize]
            .iter()
            .filter_map(|p| solver.bind.func_names.get(p).cloned())
            .collect();
        indirect_targets
            .entry((site.func.clone(), site.callee_text.clone()))
            .or_default()
            .extend(targets);
    }

    SolveOutput {
        sets: solver.sets,
        indirect_targets,
        initial_constraints: prep.initial_constraints,
        total_constraints: solver.total_constraints,
        pops: solver.pops,
        provenance: solver.prov,
    }
}

/// Solves the union of `batches` to the least fixpoint. Lock-free with
/// respect to the interner: all ids were resolved into `bind` up front.
pub(super) fn solve_worklist(
    sensitivity: Sensitivity,
    batches: &[Arc<InternedBatch>],
    bind: &BindTable,
    provenance: bool,
) -> SolveOutput {
    let mut solver = Solver::new(sensitivity, bind);
    solver.prov = provenance.then(ProvStore::new);

    let seed_span = ivy_telemetry::span("pointsto/seed", sensitivity.name());
    let prep = prepare(&mut solver, batches);
    for &(dst, loc) in &prep.seeds {
        solver.add_pts(dst, &[loc], SEED);
    }
    drop(seed_span);

    let propagate_span = ivy_telemetry::span("pointsto/propagate", sensitivity.name());
    let delta_total = solver.drain(&prep.sites, &prep.sites_of);
    drop(propagate_span);
    ivy_telemetry::counter("ivy_pointsto_worklist_pops_total", solver.pops as u64);
    ivy_telemetry::counter("ivy_pointsto_delta_locations_total", delta_total);

    finish(solver, &prep)
}

struct Solver<'a> {
    steensgaard: bool,
    bind: &'a BindTable,
    /// Copy successors: `copy_out[u]` ∋ v  ⇒  pts(v) ⊇ pts(u).
    copy_out: Vec<Vec<u32>>,
    /// Load constraints keyed by pointer: `load_out[p]` ∋ t for `t = *p`.
    load_out: Vec<Vec<u32>>,
    /// Store constraints keyed by pointer: `store_out[p]` ∋ s for `*p = s`.
    store_out: Vec<Vec<u32>>,
    /// Full points-to sets, sorted.
    sets: Vec<Vec<u32>>,
    /// Newly-added pointees not yet propagated, sorted.
    delta: Vec<Vec<u32>>,
    queued: Vec<bool>,
    worklist: VecDeque<u32>,
    /// Copy-edge dedup, packed `(u << 32) | v`.
    copy_edges: HashSet<u64>,
    /// Naive-equivalent constraint count (initial + every indirect-call
    /// binding the reference solver would have appended).
    total_constraints: usize,
    pops: usize,
    /// Derivation arena (`None` when provenance is off — the disabled
    /// cost is the `is_some` branch per fresh fact and per new edge).
    prov: Option<ProvStore>,
}

impl<'a> Solver<'a> {
    fn new(sensitivity: Sensitivity, bind: &'a BindTable) -> Solver<'a> {
        Solver {
            steensgaard: sensitivity == Sensitivity::Steensgaard,
            bind,
            copy_out: Vec::new(),
            load_out: Vec::new(),
            store_out: Vec::new(),
            sets: Vec::new(),
            delta: Vec::new(),
            queued: Vec::new(),
            worklist: VecDeque::new(),
            copy_edges: HashSet::new(),
            total_constraints: 0,
            pops: 0,
            prov: None,
        }
    }

    /// Grows the per-node tables to cover ids `< n`.
    fn ensure(&mut self, n: usize) {
        if self.sets.len() < n {
            self.copy_out.resize_with(n, Vec::new);
            self.load_out.resize_with(n, Vec::new);
            self.store_out.resize_with(n, Vec::new);
            self.sets.resize_with(n, Vec::new);
            self.delta.resize_with(n, Vec::new);
            self.queued.resize(n, false);
        }
    }

    /// Adds `items` (sorted, deduped) to `pts(node)`; genuinely new
    /// elements join the node's delta and (re)queue it. `src` is the node
    /// the items flowed from ([`SEED`] for `AddrOf` constraints), recorded
    /// as each fresh fact's premise when provenance is on.
    fn add_pts(&mut self, node: u32, items: &[u32], src: u32) {
        let set = &mut self.sets[node as usize];
        let fresh = merge_into(set, items);
        if fresh.is_empty() {
            return;
        }
        if let Some(prov) = &mut self.prov {
            for &p in &fresh {
                prov.record_fact(node, p, src);
            }
        }
        let delta = &mut self.delta[node as usize];
        let merged_delta = merge_sorted(delta, &fresh);
        *delta = merged_delta;
        if !self.queued[node as usize] {
            self.queued[node as usize] = true;
            self.worklist.push_back(node);
        }
    }

    /// Adds the dynamic copy edge u → v (deduped) and, when the edge is
    /// new, propagates u's *current* set across it so late edges see
    /// earlier facts. `trigger` is the node whose points-to set spawned
    /// the edge and `aux` the pointee of `trigger` the edge routes
    /// through, so `(trigger, aux)` is the edge's justifying fact in the
    /// provenance arena.
    fn add_copy_edge(&mut self, u: u32, v: u32, trigger: u32, aux: u32, kind: EdgeKind) {
        if u == v {
            return;
        }
        if !self.copy_edges.insert((u64::from(u)) << 32 | u64::from(v)) {
            return;
        }
        if let Some(prov) = &mut self.prov {
            prov.record_edge(u, v, trigger, aux, kind);
        }
        self.copy_out[u as usize].push(v);
        if !self.sets[u as usize].is_empty() {
            let snapshot = self.sets[u as usize].clone();
            self.add_pts(v, &snapshot, u);
        }
    }

    /// Binds one indirect call site to one discovered target: copy edges
    /// argument → parameter and return → result, mirroring (and counting
    /// exactly like) the constraints the naive reference appends.
    /// `trigger` is the site's callee node.
    fn bind_target(&mut self, args: &[u32], result: u32, func_pointee: u32, trigger: u32) {
        let Some((params, ret)) = self.bind.funcs.get(&func_pointee) else {
            // Not a function the program declares (the naive reference
            // skips these bindings too).
            return;
        };
        let (params, ret) = (params.clone(), *ret);
        for (idx, &pid) in params.iter().enumerate() {
            let Some(&arg) = args.get(idx) else { break };
            self.add_copy_edge(arg, pid, trigger, func_pointee, EdgeKind::CallBind);
            self.total_constraints += 1;
            if self.steensgaard {
                self.add_copy_edge(pid, arg, trigger, func_pointee, EdgeKind::CallBind);
                self.total_constraints += 1;
            }
        }
        self.add_copy_edge(ret, result, trigger, func_pointee, EdgeKind::CallBind);
        self.total_constraints += 1;
        if self.steensgaard {
            self.add_copy_edge(result, ret, trigger, func_pointee, EdgeKind::CallBind);
            self.total_constraints += 1;
        }
    }

    /// One worklist step for node `n`: drains its delta through the
    /// load/store constraints (spawning dynamic edges), the copy
    /// successors, and the indirect call sites through `n`. Returns the
    /// number of delta locations processed.
    fn process_node(
        &mut self,
        n: u32,
        sites: &[&ISite],
        sites_of: &HashMap<u32, Vec<usize>>,
    ) -> u64 {
        self.pops += 1;
        self.queued[n as usize] = false;
        let d = std::mem::take(&mut self.delta[n as usize]);
        if d.is_empty() {
            return 0;
        }
        // `t = *n`: every new pointee p of n contributes a copy edge p → t.
        // (take/restore instead of clone: `add_copy_edge` only ever touches
        // `copy_out`, never the load/store lists.)
        let loads = std::mem::take(&mut self.load_out[n as usize]);
        for &t in &loads {
            for &p in &d {
                self.add_copy_edge(p, t, n, p, EdgeKind::Load);
            }
        }
        self.load_out[n as usize] = loads;
        // `*n = s`: every new pointee p of n contributes a copy edge s → p.
        let stores = std::mem::take(&mut self.store_out[n as usize]);
        for &s in &stores {
            for &p in &d {
                self.add_copy_edge(s, p, n, p, EdgeKind::Store);
            }
        }
        self.store_out[n as usize] = stores;
        // Copy successors receive only the delta. `add_pts` never adds
        // edges, but `copy_out[n]` may have *grown* while the load/store
        // edges above propagated — so swap rather than overwrite.
        let copies = std::mem::take(&mut self.copy_out[n as usize]);
        for &m in &copies {
            self.add_pts(m, &d, n);
        }
        debug_assert!(self.copy_out[n as usize].is_empty());
        self.copy_out[n as usize] = copies;
        // Indirect calls through n: bind newly-discovered function targets.
        if let Some(site_idxs) = sites_of.get(&n) {
            let new_funcs: Vec<u32> = d
                .iter()
                .copied()
                .filter(|p| self.bind.func_names.contains_key(p))
                .collect();
            if !new_funcs.is_empty() {
                for &i in &site_idxs.clone() {
                    let (args, result) = (sites[i].args.clone(), sites[i].result);
                    for &f in &new_funcs {
                        self.bind_target(&args, result, f, n);
                    }
                }
            }
        }
        d.len() as u64
    }

    /// Runs the worklist to the least fixpoint. Returns the total number
    /// of delta locations propagated (summed locally and flushed as one
    /// counter update per solve so the hot loop never touches telemetry,
    /// even when counters are enabled).
    fn drain(&mut self, sites: &[&ISite], sites_of: &HashMap<u32, Vec<usize>>) -> u64 {
        let mut delta_total = 0u64;
        while let Some(n) = self.worklist.pop_front() {
            delta_total += self.process_node(n, sites, sites_of);
        }
        delta_total
    }
}

/// Merges sorted `items` into the sorted `set`, returning the elements that
/// were not already present (sorted). Allocation-free when `items` is
/// already contained — the overwhelmingly common case near the fixpoint.
pub(super) fn merge_into(set: &mut Vec<u32>, items: &[u32]) -> Vec<u32> {
    // Fast path: everything new lands after the current maximum.
    if set
        .last()
        .is_none_or(|&max| items.first().is_some_and(|&f| f > max))
    {
        set.extend_from_slice(items);
        return items.to_vec();
    }
    // Containment pre-check: count fresh elements without building anything.
    let mut fresh_count = 0usize;
    {
        let (mut i, mut j) = (0usize, 0usize);
        while j < items.len() {
            if i == set.len() || set[i] > items[j] {
                fresh_count += 1;
                j += 1;
            } else if set[i] == items[j] {
                i += 1;
                j += 1;
            } else {
                i += 1;
            }
        }
    }
    if fresh_count == 0 {
        return Vec::new();
    }
    let mut fresh = Vec::with_capacity(fresh_count);
    let mut merged = Vec::with_capacity(set.len() + fresh_count);
    let (mut i, mut j) = (0usize, 0usize);
    while i < set.len() && j < items.len() {
        match set[i].cmp(&items[j]) {
            std::cmp::Ordering::Less => {
                merged.push(set[i]);
                i += 1;
            }
            std::cmp::Ordering::Equal => {
                merged.push(set[i]);
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Greater => {
                merged.push(items[j]);
                fresh.push(items[j]);
                j += 1;
            }
        }
    }
    merged.extend_from_slice(&set[i..]);
    for &x in &items[j..] {
        merged.push(x);
        fresh.push(x);
    }
    *set = merged;
    fresh
}

/// Union of two sorted, deduped slices.
pub(super) fn merge_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_into_reports_only_fresh_elements() {
        let mut set = vec![2, 5, 9];
        let fresh = merge_into(&mut set, &[1, 5, 10]);
        assert_eq!(fresh, vec![1, 10]);
        assert_eq!(set, vec![1, 2, 5, 9, 10]);
        assert!(merge_into(&mut set, &[2, 9]).is_empty());
    }

    #[test]
    fn merge_sorted_unions() {
        assert_eq!(merge_sorted(&[1, 3], &[2, 3, 4]), vec![1, 2, 3, 4]);
        assert_eq!(merge_sorted(&[], &[7]), vec![7]);
    }
}
