//! Whole-program points-to analysis.
//!
//! BlockStop needs to know "which functions can this function pointer refer
//! to" (§2.3 of the paper); Deputy and CCount reuse the same results for
//! alias queries. Three precision levels are provided, matching the paper's
//! observation that replacing the "simple points-to analysis with one that is
//! field- and context-sensitive would improve the results":
//!
//! * [`Sensitivity::Steensgaard`] — equality-based (assignments unify both
//!   sides), the coarsest and fastest.
//! * [`Sensitivity::Andersen`] — subset-based, struct fields collapsed per
//!   composite type.
//! * [`Sensitivity::AndersenField`] — subset-based with field-based
//!   field-sensitivity (one abstract location per `(composite, field)` pair).
//!
//! The analysis is flow-insensitive and context-insensitive, as in the paper.
//!
//! # The substrate
//!
//! The analysis is split into layered modules:
//!
//! * `constraints` — syntax-directed constraint generation in one pass:
//!   it walks the AST by reference and emits interned constraint batches,
//!   one per function; a batch depends only on the function's own
//!   definition plus the whole-program type environment.
//! * `intern` — the symbol table and the dense `u32` location ids the
//!   generator interns into, so the solver runs on integer indices and
//!   `Vec` adjacency instead of string-keyed maps; a [`Loc`] is built only
//!   when a caller asks for one.
//! * `solve` — the serial worklist solver with **difference propagation**
//!   (only newly-added locations flow along edges) and online
//!   indirect-call resolution (discovering a function-pointer target adds
//!   its binding edges inside the worklist). The fixpoint terminates by
//!   construction; there is no iteration cap anywhere. It is the only
//!   solver that records provenance.
//! * `unify` — **union-find Steensgaard**: path-compressed, union-by-rank
//!   unification, the native representation for equality constraints
//!   (the worklist encodes them as mirrored subset edges). The production
//!   path: the default checker fleet runs only Steensgaard.
//! * `naive` — the rescan-all reference solver over `Loc`-keyed maps (it
//!   resolves the interned batches back to `Loc`s), kept as the
//!   differential oracle for the other two.
//!
//! Dispatch is one rule: Steensgaard without provenance solves by
//! union-find, everything else on the serial worklist. Every solve is
//! single-threaded; parallelism lives in the engine, across functions and
//! program variants.
//!
//! Entry points share those layers:
//!
//! * [`analyze`] / [`analyze_with`] — one-shot solve; [`SolveOptions`]
//!   can pin a solver ([`SolverChoice`]) and turn on provenance.
//! * [`analyze_incremental`] / [`analyze_incremental_with`] — solve
//!   against a [`ConstraintCache`]: per-function constraint batches are
//!   keyed by `mix(content_hash, env_hash)` and reused across programs,
//!   so re-analyzing an edited program regenerates constraints only for
//!   the dirty functions and re-propagates the cached interned graph
//!   ([`SolveMode`] reports whether any batch was reused).
//! * [`analyze_naive`] — the retained naive reference solver, kept for
//!   differential testing (Klinger et al.-style) and the ablation bench.
//!
//! All paths produce identical `pts` / `indirect_targets`; the differential
//! property tests in `crates/analysis/tests/differential_pointsto.rs` pin
//! that down on generated programs across every sensitivity and solver.

mod constraints;
mod intern;
mod naive;
mod solve;
mod unify;

use crate::summary::{fnv1a, mix};
use constraints::{
    gen_function_batch, gen_globals, gen_program, IConstraint, InternedBatch, ProgramIndex,
};
use intern::{LocInterner, SharedInterner};
use ivy_cmir::ast::Program;
use ivy_cmir::content::ProgramHashes;
use ivy_provenance::{EdgeKind, ProvStore, SEED};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Precision level of the points-to analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Sensitivity {
    /// Equality-based unification (Steensgaard-style).
    #[default]
    Steensgaard,
    /// Subset-based, field-insensitive (all fields of a composite collapse).
    Andersen,
    /// Subset-based, field-based field-sensitivity.
    AndersenField,
}

impl Sensitivity {
    /// Human-readable name used in reports and the ablation benchmark.
    pub fn name(self) -> &'static str {
        match self {
            Sensitivity::Steensgaard => "steensgaard",
            Sensitivity::Andersen => "andersen",
            Sensitivity::AndersenField => "andersen+field",
        }
    }
}

/// Which solver implementation a solve should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SolverChoice {
    /// Pick automatically: union-find for Steensgaard without provenance,
    /// the serial worklist otherwise.
    #[default]
    Auto,
    /// The serial difference-propagating worklist.
    Worklist,
    /// Union-find unification (Steensgaard without provenance only; other
    /// solves fall back to the worklist).
    UnionFind,
}

/// How a solve should run. The default picks the solver automatically
/// and records no provenance; callers that want derivations say so with
/// [`SolveOptions::with_provenance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveOptions {
    /// Solver implementation to use.
    pub solver: SolverChoice,
    /// Record a derivation step for every points-to fact (see
    /// [`PointsToResult::why`]). Only the worklist records provenance, so
    /// dispatch never picks union-find while this is set — sound, because
    /// both solvers produce byte-identical output.
    pub provenance: bool,
}

impl SolveOptions {
    /// `self` with derivation tracing switched on or off.
    pub fn with_provenance(mut self, on: bool) -> SolveOptions {
        self.provenance = on;
        self
    }
}

/// How a points-to result was actually computed (the solve-mode
/// discriminator surfaced through engine stats and the daemon).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum SolveMode {
    /// Solved from scratch: every constraint batch was generated fresh.
    #[default]
    Cold,
    /// Re-propagated the full cached constraint graph (batches reused,
    /// but the fixpoint was recomputed from empty sets).
    Repropagate,
}

impl SolveMode {
    /// Stable name used in stats, metrics labels, and bench reports.
    pub fn name(self) -> &'static str {
        match self {
            SolveMode::Cold => "cold",
            SolveMode::Repropagate => "incremental-repropagate",
        }
    }
}

/// An abstract memory location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Loc {
    /// A global variable.
    Global(String),
    /// A local variable or parameter of a function.
    Local {
        /// Enclosing function.
        func: String,
        /// Variable name.
        var: String,
    },
    /// A field of a composite type (field-sensitive mode).
    Field {
        /// Composite type name.
        composite: String,
        /// Field name.
        field: String,
    },
    /// A whole composite type (field-insensitive mode).
    Composite(String),
    /// A heap allocation site.
    Alloc {
        /// `function#index` of the allocating call (index counted within
        /// the function, so a function's constraints are position
        /// independent).
        site: String,
    },
    /// The address of a function (the targets of function pointers).
    Func(String),
    /// The return value of a function.
    Ret(String),
    /// An analysis-internal temporary.
    Temp {
        /// Enclosing function.
        func: String,
        /// Sequential id.
        id: u32,
    },
}

impl std::fmt::Display for Loc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Loc::Global(g) => write!(f, "global {g}"),
            Loc::Local { func, var } => write!(f, "{func}::{var}"),
            Loc::Field { composite, field } => write!(f, "{composite}.{field}"),
            Loc::Composite(c) => write!(f, "struct {c}"),
            Loc::Alloc { site } => write!(f, "alloc@{site}"),
            Loc::Func(name) => write!(f, "fn {name}"),
            Loc::Ret(name) => write!(f, "ret {name}"),
            Loc::Temp { func, id } => write!(f, "{func}::$t{id}"),
        }
    }
}

/// One link of a rendered derivation chain (see [`PointsToResult::why`]):
/// the fact "`dst` may point to `pointee`" plus the rule that derived it.
/// Chains are seed-first — the first link is always an `addr-of` seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainLink {
    /// The location whose points-to set gained `pointee` at this step.
    pub dst: Loc,
    /// The pointee.
    pub pointee: Loc,
    /// The location the fact flowed from (`None` for an `addr-of` seed).
    pub src: Option<Loc>,
    /// The rule that justified the step: `"addr-of"` for seeds, `"copy"`
    /// for static assignment edges, and `"load"` / `"store"` /
    /// `"call-bind"` for edges the solver discovered dynamically.
    pub rule: &'static str,
    /// For dynamically discovered edges, the `(trigger, aux)` premise:
    /// the pointer (or callee) node whose points-to fact spawned the edge,
    /// and the pointee that fact contributed.
    pub via: Option<(Loc, Loc)>,
}

impl ChainLink {
    /// One human-readable line for reports and the `explain` daemon verb.
    pub fn render(&self) -> String {
        match (&self.src, &self.via) {
            (None, _) => format!("{} may point to {}  [addr-of seed]", self.dst, self.pointee),
            (Some(src), None) => format!(
                "{} may point to {}  [{} from {}]",
                self.dst, self.pointee, self.rule, src
            ),
            (Some(src), Some((trigger, aux))) => format!(
                "{} may point to {}  [{} from {}; edge spawned by \"{} may point to {}\"]",
                self.dst, self.pointee, self.rule, src, trigger, aux
            ),
        }
    }
}

/// The interned solution a worklist solve produces: final sets per location
/// id plus the interner that gives the ids meaning. A query resolves only
/// the one set it asks for (see [`PointsToResult::points_to`]); the whole
/// `Loc`-keyed map is built only by [`PointsToResult::materialize`].
#[derive(Debug, Clone)]
struct Solution {
    interner: Arc<SharedInterner>,
    /// Non-empty points-to sets, `(location id, sorted pointee ids)`,
    /// sorted by location id.
    sets: Arc<Vec<(u32, Vec<u32>)>>,
}

impl Solution {
    fn points_to(&self, loc: &Loc) -> BTreeSet<Loc> {
        let interner = self.interner.lock();
        let Some(id) = interner.lookup(loc) else {
            return BTreeSet::new();
        };
        match self.sets.binary_search_by_key(&id, |(l, _)| *l) {
            Ok(i) => self.sets[i]
                .1
                .iter()
                .map(|&p| interner.resolve(p))
                .collect(),
            Err(_) => BTreeSet::new(),
        }
    }

    fn materialize(&self) -> BTreeMap<Loc, BTreeSet<Loc>> {
        let interner = self.interner.lock();
        self.sets
            .iter()
            .map(|(id, set)| {
                (
                    interner.resolve(*id),
                    set.iter().map(|&p| interner.resolve(p)).collect(),
                )
            })
            .collect()
    }
}

/// Where a result's points-to sets live.
#[derive(Debug, Clone)]
enum Repr {
    /// The interned solution of a worklist-family or union-find solve.
    Interned(Solution),
    /// The `Loc`-keyed map the naive reference computes directly.
    Naive(BTreeMap<Loc, BTreeSet<Loc>>),
}

impl Default for Repr {
    fn default() -> Repr {
        Repr::Naive(BTreeMap::new())
    }
}

/// Result of the points-to analysis.
#[derive(Debug, Clone, Default)]
pub struct PointsToResult {
    /// The points-to sets.
    repr: Repr,
    /// For every indirect call, keyed by `(function, callee expression
    /// text)`, the set of function names the callee may refer to.
    pub indirect_targets: HashMap<(String, String), BTreeSet<String>>,
    /// Precision level that produced this result.
    pub sensitivity: Sensitivity,
    /// Constraints generated from syntax, before indirect-call resolution
    /// appended bindings (the number the seed's ablation bench
    /// under-reported as its total).
    pub initial_constraints: usize,
    /// Total constraints solved, *including* the argument/return bindings
    /// added while resolving indirect calls.
    pub constraint_count: usize,
    /// Solver steps to fixpoint: full rescan rounds for the naive
    /// reference, worklist pops for the difference-propagating solver.
    pub iterations: usize,
    /// Per-function constraint batches served from a [`ConstraintCache`]
    /// (0 for non-incremental runs).
    pub batches_reused: usize,
    /// Per-function constraint batches generated fresh in this run.
    pub batches_generated: usize,
    /// How this result was computed (cold / re-propagate).
    pub mode: SolveMode,
    /// Derivation arena recorded during the solve (`None` unless the solve
    /// ran with [`SolveOptions::provenance`]).
    provenance: Option<Arc<ProvStore>>,
}

impl PointsToResult {
    fn from_solution(
        interner: Arc<SharedInterner>,
        out: solve::SolveOutput,
        sensitivity: Sensitivity,
        batches_reused: usize,
        batches_generated: usize,
    ) -> PointsToResult {
        let provenance = out.provenance.map(Arc::new);
        let sets: Vec<(u32, Vec<u32>)> = out
            .sets
            .into_iter()
            .enumerate()
            .filter(|(_, s)| !s.is_empty())
            .map(|(id, s)| (id as u32, s))
            .collect();
        PointsToResult {
            repr: Repr::Interned(Solution {
                interner,
                sets: Arc::new(sets),
            }),
            indirect_targets: out.indirect_targets,
            sensitivity,
            initial_constraints: out.initial_constraints,
            constraint_count: out.total_constraints,
            iterations: out.pops,
            batches_reused,
            batches_generated,
            mode: SolveMode::Cold,
            provenance,
        }
    }

    pub(crate) fn from_naive(
        pts: BTreeMap<Loc, BTreeSet<Loc>>,
        indirect_targets: HashMap<(String, String), BTreeSet<String>>,
        sensitivity: Sensitivity,
        initial_constraints: usize,
        constraint_count: usize,
        iterations: usize,
    ) -> PointsToResult {
        PointsToResult {
            repr: Repr::Naive(pts),
            indirect_targets,
            sensitivity,
            initial_constraints,
            constraint_count,
            iterations,
            batches_reused: 0,
            batches_generated: 0,
            mode: SolveMode::Cold,
            provenance: None,
        }
    }

    fn solution(&self) -> Option<&Solution> {
        match &self.repr {
            Repr::Interned(sol) => Some(sol),
            Repr::Naive(_) => None,
        }
    }

    /// The whole solution as a `Loc`-keyed map: every abstract location
    /// with a non-empty set. Builds the map afresh on every call — this is
    /// the view for differential tests and the soundness oracle; alias
    /// queries go through [`PointsToResult::points_to`].
    pub fn materialize(&self) -> BTreeMap<Loc, BTreeSet<Loc>> {
        match &self.repr {
            Repr::Interned(sol) => sol.materialize(),
            Repr::Naive(pts) => pts.clone(),
        }
    }

    /// The points-to set of a location (empty if unknown). Resolves only
    /// that one set.
    pub fn points_to(&self, loc: &Loc) -> BTreeSet<Loc> {
        match &self.repr {
            Repr::Interned(sol) => sol.points_to(loc),
            Repr::Naive(pts) => pts.get(loc).cloned().unwrap_or_default(),
        }
    }

    /// The functions a given location may point to.
    pub fn functions_pointed_by(&self, loc: &Loc) -> BTreeSet<String> {
        self.points_to(loc)
            .into_iter()
            .filter_map(|l| match l {
                Loc::Func(f) => Some(f),
                _ => None,
            })
            .collect()
    }

    /// Borrowed view of the possible targets of an indirect call (`None`
    /// when the site is unknown). This is the query path for call-graph
    /// construction and checkers — no set clone per call site.
    pub fn indirect_targets_for(&self, func: &str, callee_text: &str) -> Option<&BTreeSet<String>> {
        self.indirect_targets
            .get(&(func.to_string(), callee_text.to_string()))
    }

    /// The possible targets of an indirect call, identified by the enclosing
    /// function and the callee expression's printed form.
    pub fn indirect_call_targets(&self, func: &str, callee_text: &str) -> BTreeSet<String> {
        self.indirect_targets_for(func, callee_text)
            .cloned()
            .unwrap_or_default()
    }

    /// Average size of the points-to sets of indirect-call callees (a
    /// precision metric used by the E6 ablation).
    pub fn mean_indirect_fanout(&self) -> f64 {
        if self.indirect_targets.is_empty() {
            return 0.0;
        }
        let total: usize = self.indirect_targets.values().map(|s| s.len()).sum();
        total as f64 / self.indirect_targets.len() as f64
    }

    /// Whether this result carries a derivation arena.
    pub fn has_provenance(&self) -> bool {
        self.provenance.is_some()
    }

    /// Number of derivation steps recorded (0 when provenance was off).
    /// One step per derived fact, so this also counts the facts.
    pub fn provenance_facts(&self) -> usize {
        self.provenance.as_ref().map_or(0, |p| p.facts())
    }

    /// Number of dynamically-discovered graph edges whose justification
    /// was recorded (0 when provenance was off). Together with
    /// [`PointsToResult::provenance_facts`] this counts every recording
    /// call the solver made — what a disabled-mode overhead budget has to
    /// price.
    pub fn provenance_edges(&self) -> usize {
        self.provenance.as_ref().map_or(0, |p| p.dyn_edges())
    }

    /// Approximate heap footprint of the derivation arena in bytes (0 when
    /// provenance was off).
    pub fn provenance_bytes(&self) -> usize {
        self.provenance.as_ref().map_or(0, |p| p.bytes())
    }

    /// The derivation chain of the fact "`loc` may point to `target`",
    /// seed-first: the first link is an `addr-of` seed and every later
    /// link names the source set the fact flowed from plus the rule that
    /// carried it. `None` when provenance was not recorded, either
    /// location is unknown, or the fact does not hold.
    pub fn why(&self, loc: &Loc, target: &Loc) -> Option<Vec<ChainLink>> {
        let (dst, tgt) = {
            let sol = self.solution()?;
            let interner = sol.interner.lock();
            (interner.lookup(loc)?, interner.lookup(target)?)
        };
        self.why_ids(dst, tgt)
    }

    /// The derivation chain behind one resolved indirect-call target: why
    /// the call through `callee_text` in `func` may reach `target_fn`.
    /// Regenerates the program's constraints to locate the call site's
    /// callee node (interning is append-only and idempotent, so the ids
    /// match the solve's).
    pub fn why_indirect(
        &self,
        program: &Program,
        func: &str,
        callee_text: &str,
        target_fn: &str,
    ) -> Option<Vec<ChainLink>> {
        let (callee, tgt) = {
            let sol = self.solution()?;
            let mut interner = sol.interner.lock();
            let index = ProgramIndex::new(program);
            let callee = gen_program(&index, self.sensitivity, &mut interner)
                .into_iter()
                .flat_map(|batch| batch.sites)
                .find(|site| site.func == func && site.callee_text == callee_text)
                .map(|site| site.callee);
            (callee?, interner.lookup(&Loc::Func(target_fn.to_string()))?)
        };
        self.why_ids(callee, tgt)
    }

    fn why_ids(&self, dst: u32, tgt: u32) -> Option<Vec<ChainLink>> {
        let prov = self.provenance.as_ref()?;
        let chain = prov.why(dst, tgt)?;
        let sol = self.solution()?;
        let interner = sol.interner.lock();
        Some(
            chain
                .iter()
                .map(|cs| ChainLink {
                    dst: interner.resolve(cs.dst),
                    pointee: interner.resolve(cs.pointee),
                    src: (cs.src != SEED).then(|| interner.resolve(cs.src)),
                    rule: if cs.src == SEED {
                        "addr-of"
                    } else {
                        cs.edge.map_or("copy", |e| e.kind.name())
                    },
                    via: cs
                        .edge
                        .map(|e| (interner.resolve(e.trigger), interner.resolve(e.aux))),
                })
                .collect(),
        )
    }
}

/// Runs the from-scratch solver the options select: union-find for a
/// Steensgaard solve without provenance unless the worklist is pinned,
/// the serial worklist otherwise. Unification is only an equality-based
/// (Steensgaard) encoding and records no derivation steps; both solvers
/// produce byte-identical output.
fn run_solver(
    sensitivity: Sensitivity,
    batches: &[Arc<InternedBatch>],
    bind: &solve::BindTable,
    opts: SolveOptions,
) -> solve::SolveOutput {
    if sensitivity == Sensitivity::Steensgaard
        && !opts.provenance
        && opts.solver != SolverChoice::Worklist
    {
        unify::solve_unify(sensitivity, batches, bind)
    } else {
        solve::solve_worklist(sensitivity, batches, bind, opts.provenance)
    }
}

/// Runs the points-to analysis over a whole program (one-shot: constraints
/// are generated, interned into a fresh interner, and solved) with the
/// default [`SolveOptions`].
pub fn analyze(program: &Program, sensitivity: Sensitivity) -> PointsToResult {
    analyze_with(program, sensitivity, SolveOptions::default())
}

/// [`analyze`] with explicit solver options.
pub fn analyze_with(
    program: &Program,
    sensitivity: Sensitivity,
    opts: SolveOptions,
) -> PointsToResult {
    let interner = Arc::new(SharedInterner::default());
    let (batches, bind) = {
        let _span = ivy_telemetry::span("pointsto/intern", sensitivity.name());
        let mut guard = interner.lock();
        let index = ProgramIndex::new(program);
        let generate_span = ivy_telemetry::span("pointsto/generate", sensitivity.name());
        let batches: Vec<Arc<InternedBatch>> = gen_program(&index, sensitivity, &mut guard)
            .into_iter()
            .map(Arc::new)
            .collect();
        drop(generate_span);
        let _bind_span = ivy_telemetry::span("pointsto/bind", sensitivity.name());
        let bind = solve::BindTable::build(&index, &batches, &mut guard);
        (batches, bind)
    };
    let out = run_solver(sensitivity, &batches, &bind, opts);
    let generated = batches.len();
    let r = PointsToResult::from_solution(interner, out, sensitivity, 0, generated);
    ivy_telemetry::counter_labeled("ivy_pointsto_solves_total", "mode", r.mode.name(), 1);
    r
}

/// Runs the retained naive reference solver (rescan-all rounds over
/// `Loc`-keyed `BTreeMap`s) on the program's interned constraints. Slow by
/// design; used by the differential property tests and the solver-scaling
/// bench.
pub fn analyze_naive(program: &Program, sensitivity: Sensitivity) -> PointsToResult {
    let mut interner = LocInterner::default();
    let index = ProgramIndex::new(program);
    let batches = gen_program(&index, sensitivity, &mut interner);
    naive::solve_naive(&index, sensitivity, &batches, &mut interner)
}

/// Replays every derivation step of a provenance-enabled solve against the
/// program's own constraints. Checks three things:
///
/// 1. **Well-foundedness** — every premise fact was recorded at a strictly
///    lower arena index than the fact it justifies (so chains terminate).
/// 2. **Rule soundness** — seeds match an `AddrOf` constraint; every other
///    step crosses either a static `Copy` edge or a recorded dynamic edge
///    whose trigger fact exists, precedes the step, and matches the
///    spawning rule (`Load` / `Store` / indirect-call binding).
/// 3. **Completeness** — the recorded facts are exactly the final
///    points-to sets (every set element has a derivation and vice versa).
///
/// Returns the number of steps verified. `program` must be the program the
/// result was computed from.
pub fn verify_derivations(program: &Program, r: &PointsToResult) -> Result<usize, String> {
    let sol = r.solution().ok_or("result has no interned solution")?;
    let prov = r
        .provenance
        .as_ref()
        .ok_or("result has no provenance arena")?;
    let steensgaard = r.sensitivity == Sensitivity::Steensgaard;

    // Regenerate the constraints. Interning is append-only and idempotent,
    // so re-interning the same program yields the ids the solve used.
    let mut interner = sol.interner.lock();
    let index = ProgramIndex::new(program);
    let batches: Vec<Arc<InternedBatch>> = gen_program(&index, r.sensitivity, &mut interner)
        .into_iter()
        .map(Arc::new)
        .collect();
    let bind = solve::BindTable::build(&index, &batches, &mut interner);
    drop(interner);

    let mut addrof: HashSet<(u32, u32)> = HashSet::new();
    let mut copies: HashSet<(u32, u32)> = HashSet::new();
    let mut loads: HashSet<(u32, u32)> = HashSet::new();
    let mut stores: HashSet<(u32, u32)> = HashSet::new();
    let mut sites: Vec<&constraints::ISite> = Vec::new();
    for batch in &batches {
        for c in &batch.constraints {
            match *c {
                IConstraint::AddrOf { dst, loc } => {
                    addrof.insert((dst, loc));
                }
                IConstraint::Copy { dst, src } => {
                    copies.insert((dst, src));
                }
                IConstraint::Load { dst, src } => {
                    loads.insert((dst, src));
                }
                IConstraint::Store { dst, src } => {
                    stores.insert((dst, src));
                }
            }
        }
        sites.extend(batch.sites.iter());
    }

    let mut verified = 0usize;
    for (i, step) in prov.steps().iter().enumerate() {
        let i = u32::try_from(i).expect("arena indices fit u32");
        if step.src == SEED {
            if !addrof.contains(&(step.dst, step.pointee)) {
                return Err(format!(
                    "step {i}: seed {} ∋ {} has no AddrOf constraint",
                    step.dst, step.pointee
                ));
            }
            verified += 1;
            continue;
        }
        // Premise 1: the same pointee in the source set, derived earlier.
        match prov.index_of(step.src, step.pointee) {
            Some(j) if j < i => {}
            Some(j) => {
                return Err(format!(
                    "step {i}: premise {} ∋ {} recorded later (step {j})",
                    step.src, step.pointee
                ))
            }
            None => {
                return Err(format!(
                    "step {i}: premise {} ∋ {} has no derivation",
                    step.src, step.pointee
                ))
            }
        }
        // The edge src → dst itself must be justified.
        if copies.contains(&(step.dst, step.src)) {
            verified += 1;
            continue;
        }
        let Some(e) = prov.edge_prov(step.src, step.dst) else {
            return Err(format!(
                "step {i}: edge {} → {} is neither a static copy nor a recorded dynamic edge",
                step.src, step.dst
            ));
        };
        // Premise 2: the fact that spawned the edge, derived earlier.
        match prov.index_of(e.trigger, e.aux) {
            Some(k) if k < i => {}
            Some(k) => {
                return Err(format!(
                    "step {i}: edge premise {} ∋ {} recorded later (step {k})",
                    e.trigger, e.aux
                ))
            }
            None => {
                return Err(format!(
                    "step {i}: edge premise {} ∋ {} has no derivation",
                    e.trigger, e.aux
                ))
            }
        }
        let rule_ok = match e.kind {
            // `t = *n` with n ∋ p spawns p → t: aux is p (= the step's
            // source), and a Load constraint reads through the trigger.
            EdgeKind::Load => e.aux == step.src && loads.contains(&(step.dst, e.trigger)),
            // `*n = s` with n ∋ p spawns s → p: aux is p (= the step's
            // destination), and a Store constraint writes through the
            // trigger.
            EdgeKind::Store => e.aux == step.dst && stores.contains(&(e.trigger, step.src)),
            // A callee set gaining a function spawns arg → param and
            // ret → result edges (mirrored under Steensgaard).
            EdgeKind::CallBind => bind.funcs.get(&e.aux).is_some_and(|(params, ret)| {
                sites.iter().any(|s| {
                    s.callee == e.trigger
                        && (params.iter().zip(&s.args).any(|(&p, &a)| {
                            (step.src, step.dst) == (a, p)
                                || (steensgaard && (step.src, step.dst) == (p, a))
                        }) || (step.src, step.dst) == (*ret, s.result)
                            || (steensgaard && (step.src, step.dst) == (s.result, *ret)))
                })
            }),
        };
        if !rule_ok {
            return Err(format!(
                "step {i}: {} edge {} → {} not justified by trigger fact {} ∋ {}",
                e.kind.name(),
                step.src,
                step.dst,
                e.trigger,
                e.aux
            ));
        }
        verified += 1;
    }

    // Completeness: every element of every final set has a derivation, and
    // the counts match (sets only grow, so equal counts mean a bijection).
    let mut total = 0usize;
    for (id, set) in sol.sets.iter() {
        for &p in set {
            total += 1;
            if prov.index_of(*id, p).is_none() {
                return Err(format!("final fact {id} ∋ {p} has no derivation"));
            }
        }
    }
    if total != prov.facts() {
        return Err(format!(
            "arena records {} facts but the solution holds {total}",
            prov.facts()
        ));
    }
    Ok(verified)
}

/// Upper bound on cached constraint batches before the cache is cleared
/// wholesale (the interner is kept — ids stay valid).
const BATCH_CACHE_CAP: usize = 16384;

/// A cross-program cache of interned per-function constraint batches.
///
/// Batches are keyed by `mix(mix(content_hash, env_hash), sensitivity)`:
/// a function's constraints depend only on its own (span-insensitive)
/// definition and the whole-program type environment (callee signatures and
/// attributes, globals, composites, typedefs), so two programs that share a
/// function body and environment share its batch. After an edit,
/// [`analyze_incremental`] regenerates batches only for dirty functions and
/// re-solves from the cached interned graph — no `Loc` is constructed,
/// hashed, or interned for a clean function.
///
/// The interner is shared with every [`PointsToResult`] produced through
/// the cache, which is what lets them resolve `Loc` queries against their
/// interned sets long after the solve.
#[derive(Debug, Default)]
pub struct ConstraintCache {
    interner: Arc<SharedInterner>,
    batches: Mutex<HashMap<u64, Arc<InternedBatch>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    solves_cold: AtomicU64,
    solves_repropagate: AtomicU64,
}

impl ConstraintCache {
    /// An empty cache.
    pub fn new() -> ConstraintCache {
        ConstraintCache::default()
    }

    /// Number of cached batches.
    pub fn len(&self) -> usize {
        self.batches.lock().expect("batch map poisoned").len()
    }

    /// Whether the cache holds no batches.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Batches served from cache across all runs.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Batches generated fresh across all runs.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Solves through this cache that ran cold (no batch reused).
    pub fn solves_cold(&self) -> u64 {
        self.solves_cold.load(Ordering::Relaxed)
    }

    /// Solves that re-propagated the cached graph from empty sets.
    pub fn solves_repropagate(&self) -> u64 {
        self.solves_repropagate.load(Ordering::Relaxed)
    }

    fn count_mode(&self, mode: SolveMode) {
        let c = match mode {
            SolveMode::Cold => &self.solves_cold,
            SolveMode::Repropagate => &self.solves_repropagate,
        };
        c.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs the worklist analysis against a [`ConstraintCache`], reusing the
/// constraint batches of every function whose definition and type
/// environment are unchanged. Produces exactly the same result as
/// [`analyze`].
pub fn analyze_incremental(
    program: &Program,
    sensitivity: Sensitivity,
    cache: &ConstraintCache,
) -> PointsToResult {
    analyze_incremental_with(
        program,
        &ProgramHashes::of(program),
        sensitivity,
        cache,
        SolveOptions::default(),
    )
}

/// [`analyze_incremental`] with explicit solver options, keying the
/// constraint batches on the program's already-computed `hashes`
/// (which must be `ProgramHashes::of(program)`).
pub fn analyze_incremental_with(
    program: &Program,
    hashes: &ProgramHashes,
    sensitivity: Sensitivity,
    cache: &ConstraintCache,
    opts: SolveOptions,
) -> PointsToResult {
    let env = hashes.env;
    let sens_tag = fnv1a(sensitivity.name().as_bytes());
    // The interner lock covers only batch fetch/generation/interning and
    // the bind-table pre-resolution; the solve itself runs lock-free, so
    // solves sharing one cache (e.g. corpus variants) stay parallel.
    let intern_span = ivy_telemetry::span("pointsto/intern", sensitivity.name());
    let mut guard = cache.interner.lock();
    let interner: &mut LocInterner = &mut guard;
    let index = ProgramIndex::new(program);
    let generate_span = ivy_telemetry::span("pointsto/generate", sensitivity.name());
    let mut batches: Vec<Arc<InternedBatch>> = Vec::with_capacity(program.functions.len() + 1);
    let mut reused = 0usize;
    let mut generated = 0usize;
    {
        let mut map = cache.batches.lock().expect("batch map poisoned");
        let globals_key = mix(mix(fnv1a(b"pointsto/globals"), env), sens_tag);
        let mut fetch = |key: u64,
                         interner: &mut LocInterner,
                         make: &dyn Fn(&mut LocInterner) -> InternedBatch| {
            if let Some(batch) = map.get(&key) {
                reused += 1;
                return Arc::clone(batch);
            }
            generated += 1;
            let batch = Arc::new(make(interner));
            if map.len() >= BATCH_CACHE_CAP {
                map.clear();
            }
            map.insert(key, Arc::clone(&batch));
            batch
        };
        batches.push(fetch(globals_key, interner, &|i| {
            gen_globals(&index, sensitivity, i)
        }));
        for (f, &content) in program.functions.iter().zip(&hashes.functions) {
            if f.body.is_none() {
                continue;
            }
            let key = mix(mix(content, env), sens_tag);
            batches.push(fetch(key, interner, &|i| {
                gen_function_batch(&index, sensitivity, i, f)
            }));
        }
    }
    drop(generate_span);
    cache.hits.fetch_add(reused as u64, Ordering::Relaxed);
    cache.misses.fetch_add(generated as u64, Ordering::Relaxed);
    let bind_span = ivy_telemetry::span("pointsto/bind", sensitivity.name());
    let bind = solve::BindTable::build(&index, &batches, interner);
    drop(bind_span);
    drop(guard);
    drop(intern_span);

    let out = run_solver(sensitivity, &batches, &bind, opts);
    let mode = if reused == 0 {
        SolveMode::Cold
    } else {
        SolveMode::Repropagate
    };
    let mut r = PointsToResult::from_solution(
        Arc::clone(&cache.interner),
        out,
        sensitivity,
        reused,
        generated,
    );
    r.mode = mode;
    cache.count_mode(mode);
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivy_cmir::parser::parse_program;

    const OPS_TABLE: &str = r#"
        struct file_ops {
            read: fnptr(u32) -> i32;
            write: fnptr(u32) -> i32;
        }
        global ext2_ops: struct file_ops;
        global pipe_ops: struct file_ops;

        fn ext2_read(n: u32) -> i32 { return 1; }
        fn ext2_write(n: u32) -> i32 { return 2; }
        fn pipe_read(n: u32) -> i32 { return 3; }

        fn register_ops() {
            ext2_ops.read = ext2_read;
            ext2_ops.write = ext2_write;
            pipe_ops.read = pipe_read;
        }

        fn vfs_read(ops: struct file_ops *, n: u32) -> i32 {
            return ops->read(n);
        }

        fn do_read(n: u32) -> i32 {
            return vfs_read(&ext2_ops, n);
        }
    "#;

    #[test]
    fn resolves_function_pointers_through_struct_fields() {
        let p = parse_program(OPS_TABLE).unwrap();
        let r = analyze(&p, Sensitivity::AndersenField);
        let targets = r.indirect_call_targets("vfs_read", "ops->read");
        assert!(targets.contains("ext2_read"), "targets: {targets:?}");
        assert!(
            targets.contains("pipe_read"),
            "field-based merging expected"
        );
        // Field sensitivity separates read from write.
        assert!(!targets.contains("ext2_write"), "targets: {targets:?}");
    }

    #[test]
    fn field_insensitive_merges_fields() {
        let p = parse_program(OPS_TABLE).unwrap();
        let r = analyze(&p, Sensitivity::Andersen);
        let targets = r.indirect_call_targets("vfs_read", "ops->read");
        // Without field sensitivity read and write collapse.
        assert!(targets.contains("ext2_write"), "targets: {targets:?}");
    }

    #[test]
    fn steensgaard_is_no_more_precise_than_andersen() {
        let p = parse_program(OPS_TABLE).unwrap();
        let st = analyze(&p, Sensitivity::Steensgaard);
        let an = analyze(&p, Sensitivity::Andersen);
        let t_st = st.indirect_call_targets("vfs_read", "ops->read");
        let t_an = an.indirect_call_targets("vfs_read", "ops->read");
        assert!(t_an.is_subset(&t_st) || t_an == t_st);
    }

    #[test]
    fn direct_call_binds_parameters() {
        let src = r#"
            fn callee(p: u8 *) -> u8 * { return p; }
            global buffer: u8[64];
            fn caller() -> u8 * {
                let q: u8 * = callee(&buffer[0]);
                return q;
            }
        "#;
        let p = parse_program(src).unwrap();
        let r = analyze(&p, Sensitivity::Andersen);
        let q = Loc::Local {
            func: "caller".into(),
            var: "q".into(),
        };
        let pts = r.points_to(&q);
        assert!(
            pts.iter()
                .any(|l| matches!(l, Loc::Global(g) if g == "buffer")),
            "q should point to buffer, got {pts:?}"
        );
    }

    #[test]
    fn allocation_sites_are_distinct() {
        let src = r#"
            #[allocator]
            fn kmalloc(size: u32, flags: u32) -> void * { return null; }
            fn f() {
                let a: u8 * = kmalloc(16, 0) as u8 *;
                let b: u8 * = kmalloc(32, 0) as u8 *;
                a = b;
            }
        "#;
        let p = parse_program(src).unwrap();
        let r = analyze(&p, Sensitivity::Andersen);
        let a = Loc::Local {
            func: "f".into(),
            var: "a".into(),
        };
        let b = Loc::Local {
            func: "f".into(),
            var: "b".into(),
        };
        // `a` sees both sites after `a = b`; `b` sees only its own.
        assert_eq!(r.points_to(&a).len(), 2, "{:?}", r.points_to(&a));
        assert_eq!(r.points_to(&b).len(), 1);
    }

    #[test]
    fn array_fields_decay_to_their_field_location() {
        // `dev->ring` used as a value must behave like `&dev->ring[0]`:
        // the callee's parameter points at the field's storage, and
        // pointers stored into the array's slots stay visible. The old
        // value-copy modelling dropped both (caught by the dynamic
        // soundness oracle on the kernelgen drivers).
        let src = r#"
            typedef irq_fn = fnptr(u32) -> u32;
            struct dev { ring: u8[64]; tbl: irq_fn[4]; }
            global d0: struct dev;
            fn handler(x: u32) -> u32 { return x; }
            fn fill(p: u8 *) { }
            fn setup() {
                d0.tbl[0] = handler;
                fill(d0.ring);
            }
            fn fire(i: u32) -> u32 {
                return d0.tbl[i](7);
            }
        "#;
        let p = parse_program(src).unwrap();
        for s in [Sensitivity::Andersen, Sensitivity::AndersenField] {
            let r = analyze(&p, s);
            let param = Loc::Local {
                func: "fill".into(),
                var: "p".into(),
            };
            let pts = r.points_to(&param);
            assert!(
                pts.iter().any(|l| matches!(
                    l,
                    Loc::Field { field, .. } if field == "ring"
                ) || matches!(l, Loc::Composite(c) if c == "dev")),
                "{}: array-field decay must reach the callee: {pts:?}",
                s.name()
            );
            let targets = r.indirect_call_targets("fire", "d0.tbl[i]");
            assert!(
                targets.contains("handler"),
                "{}: fnptr stored through an array field must resolve: {targets:?}",
                s.name()
            );
            // Worklist and naive agree on the new constraint shape.
            let slow = analyze_naive(&p, s);
            assert_eq!(r.materialize(), slow.materialize());
            assert_eq!(r.indirect_targets, slow.indirect_targets);
        }
    }

    #[test]
    fn function_pointer_call_binds_arguments() {
        let src = r#"
            global sink: u8 *;
            fn store(p: u8 *) { sink = p; }
            global hook: fnptr(u8 *) -> void;
            global data: u8[8];
            fn setup() { hook = store; }
            fn fire() { hook(&data[0]); }
        "#;
        let p = parse_program(src).unwrap();
        let r = analyze(&p, Sensitivity::Andersen);
        let sink = Loc::Global("sink".into());
        let pts = r.points_to(&sink);
        assert!(
            pts.iter()
                .any(|l| matches!(l, Loc::Global(g) if g == "data")),
            "indirect call must bind args: {pts:?}"
        );
        let targets = r.indirect_call_targets("fire", "hook");
        assert_eq!(
            targets.into_iter().collect::<Vec<_>>(),
            vec!["store".to_string()]
        );
    }

    #[test]
    fn reports_constraint_statistics() {
        let p = parse_program(OPS_TABLE).unwrap();
        let r = analyze(&p, Sensitivity::AndersenField);
        assert!(r.initial_constraints > 0);
        assert!(
            r.constraint_count > r.initial_constraints,
            "indirect-call bindings must be counted in the total: {} vs {}",
            r.constraint_count,
            r.initial_constraints
        );
        assert!(r.iterations >= 1);
        assert!(r.mean_indirect_fanout() >= 1.0);
    }

    /// The worklist solver and the naive reference agree byte for byte on
    /// every unit-test program, for all sensitivities.
    #[test]
    fn worklist_matches_naive_on_unit_programs() {
        let chain_src = r#"
            global g: u32 = 0;
            fn f() {
                let p3: u32 * = null;
                let p2: u32 * = null;
                let p1: u32 * = null;
                p3 = p2;
                p2 = p1;
                p1 = &g;
            }
        "#;
        for src in [OPS_TABLE, chain_src] {
            let p = parse_program(src).unwrap();
            for s in [
                Sensitivity::Steensgaard,
                Sensitivity::Andersen,
                Sensitivity::AndersenField,
            ] {
                let fast = analyze(&p, s);
                let slow = analyze_naive(&p, s);
                assert_eq!(
                    fast.materialize(),
                    slow.materialize(),
                    "{} pts diverge",
                    s.name()
                );
                assert_eq!(
                    fast.indirect_targets,
                    slow.indirect_targets,
                    "{} indirect targets diverge",
                    s.name()
                );
                assert_eq!(fast.initial_constraints, slow.initial_constraints);
                assert_eq!(fast.constraint_count, slow.constraint_count);
            }
        }
    }

    /// A reverse-ordered copy chain longer than the seed's deleted
    /// `iterations > 256` bailout: the naive solver needs one rescan round
    /// per link, so reaching the far end proves the fixpoint runs to
    /// completion with no cap.
    #[test]
    fn deep_copy_chain_reaches_a_true_fixpoint() {
        const LINKS: usize = 320;
        let mut src = String::from("global g: u32 = 0;\nfn f() {\n");
        for i in (0..=LINKS).rev() {
            src.push_str(&format!("    let p{i}: u32 * = null;\n"));
        }
        // Adversarial order: the last link is assigned first, so each naive
        // rescan round advances the fact by exactly one link.
        for i in (1..=LINKS).rev() {
            src.push_str(&format!("    p{i} = p{};\n", i - 1));
        }
        src.push_str("    p0 = &g;\n}\n");
        let p = parse_program(&src).unwrap();

        let fast = analyze(&p, Sensitivity::Andersen);
        let slow = analyze_naive(&p, Sensitivity::Andersen);
        assert!(
            slow.iterations > 256,
            "the chain must genuinely need more rounds than the old cap, got {}",
            slow.iterations
        );
        let tail = Loc::Local {
            func: "f".into(),
            var: format!("p{LINKS}"),
        };
        for r in [&fast, &slow] {
            assert!(
                r.points_to(&tail)
                    .iter()
                    .any(|l| matches!(l, Loc::Global(g) if g == "g")),
                "the fact must reach the end of the chain"
            );
        }
        assert_eq!(fast.materialize(), slow.materialize());
    }

    #[test]
    fn incremental_reuses_clean_batches_and_matches_cold() {
        let p = parse_program(OPS_TABLE).unwrap();
        let cache = ConstraintCache::new();
        let cold = analyze_incremental(&p, Sensitivity::AndersenField, &cache);
        assert_eq!(cold.batches_reused, 0);
        assert!(cold.batches_generated > 0);

        // Identical program: everything reused.
        let warm = analyze_incremental(&p, Sensitivity::AndersenField, &cache);
        assert_eq!(warm.batches_generated, 0);
        assert_eq!(warm.batches_reused, cold.batches_generated);
        assert_eq!(warm.materialize(), cold.materialize());
        assert_eq!(warm.indirect_targets, cold.indirect_targets);

        // One-function edit: exactly one batch regenerates.
        let edited_src = OPS_TABLE.replace("return vfs_read(&ext2_ops, n);", "return 0;");
        let edited = parse_program(&edited_src).unwrap();
        let incr = analyze_incremental(&edited, Sensitivity::AndersenField, &cache);
        assert_eq!(
            incr.batches_generated, 1,
            "only the edited function is dirty"
        );
        let scratch = analyze(&edited, Sensitivity::AndersenField);
        assert_eq!(incr.materialize(), scratch.materialize());
        assert_eq!(incr.indirect_targets, scratch.indirect_targets);

        // Sensitivity is part of the key: a different level shares nothing.
        let other = analyze_incremental(&p, Sensitivity::Andersen, &cache);
        assert_eq!(other.batches_reused, 0);
    }

    #[test]
    fn signature_edits_invalidate_every_batch() {
        let p = parse_program(OPS_TABLE).unwrap();
        let cache = ConstraintCache::new();
        analyze_incremental(&p, Sensitivity::Andersen, &cache);
        // Changing a signature changes the env hash, which keys every batch:
        // constraints consult callee signatures, so all must regenerate.
        let edited =
            parse_program(&OPS_TABLE.replace("fn do_read(n: u32)", "fn do_read()")).unwrap();
        let incr = analyze_incremental(&edited, Sensitivity::Andersen, &cache);
        assert_eq!(incr.batches_reused, 0, "env change dirties everything");
        // A full invalidation reuses nothing, so the solve reports cold.
        assert_eq!(incr.mode, SolveMode::Cold);
    }

    /// Every explicit solver choice produces byte-identical output to the
    /// naive reference, including the constraint statistics.
    #[test]
    fn explicit_solvers_match_naive() {
        let p = parse_program(OPS_TABLE).unwrap();
        for s in [
            Sensitivity::Steensgaard,
            Sensitivity::Andersen,
            Sensitivity::AndersenField,
        ] {
            let slow = analyze_naive(&p, s);
            for solver in [SolverChoice::Worklist, SolverChoice::UnionFind] {
                let r = analyze_with(
                    &p,
                    s,
                    SolveOptions {
                        solver,
                        ..SolveOptions::default()
                    },
                );
                assert_eq!(
                    r.materialize(),
                    slow.materialize(),
                    "{} {:?} pts",
                    s.name(),
                    solver
                );
                assert_eq!(
                    r.indirect_targets,
                    slow.indirect_targets,
                    "{} {:?} targets",
                    s.name(),
                    solver
                );
                assert_eq!(r.initial_constraints, slow.initial_constraints);
                assert_eq!(
                    r.constraint_count,
                    slow.constraint_count,
                    "{} {:?} constraint totals",
                    s.name(),
                    solver
                );
            }
        }
    }

    /// Body-only edits re-propagate the cached graph and match a
    /// from-scratch solve byte for byte in both directions: deleting a
    /// derivation (the direct vfs_read call), then re-adding it.
    #[test]
    fn repropagation_after_delete_and_readd_edits_matches_scratch() {
        let original = parse_program(OPS_TABLE).unwrap();
        let edited =
            parse_program(&OPS_TABLE.replace("return vfs_read(&ext2_ops, n);", "return 0;"))
                .unwrap();
        for s in [Sensitivity::Andersen, Sensitivity::AndersenField] {
            let cache = ConstraintCache::new();
            let cold = analyze_incremental(&original, s, &cache);
            assert_eq!(cold.mode, SolveMode::Cold);
            for (what, p, generated) in [("delete-edit", &edited, 1), ("re-add edit", &original, 0)]
            {
                let incr = analyze_incremental(p, s, &cache);
                assert_eq!(incr.mode, SolveMode::Repropagate, "{} {what}", s.name());
                assert_eq!(incr.batches_generated, generated, "{} {what}", s.name());
                let scratch = analyze_with(p, s, SolveOptions::default());
                assert_eq!(
                    incr.materialize(),
                    scratch.materialize(),
                    "{} {what}",
                    s.name()
                );
                assert_eq!(incr.indirect_targets, scratch.indirect_targets);
                assert_eq!(incr.constraint_count, scratch.constraint_count);
            }
            assert_eq!(cache.solves_repropagate(), 2);
            assert_eq!(cache.solves_cold(), 1);
        }
    }

    /// An edit that rewires a function-pointer table: the re-propagated
    /// result must drop the retracted indirect-call target and its
    /// downstream flows, not just local sets.
    #[test]
    fn repropagation_retracts_rewired_indirect_call_bindings() {
        let p = parse_program(OPS_TABLE).unwrap();
        let edited = parse_program(&OPS_TABLE.replace("pipe_ops.read = pipe_read;", "")).unwrap();
        for s in [Sensitivity::Andersen, Sensitivity::AndersenField] {
            let cache = ConstraintCache::new();
            let before = analyze_incremental(&p, s, &cache);
            assert!(before
                .indirect_call_targets("vfs_read", "ops->read")
                .contains("pipe_read"));
            let incr = analyze_incremental(&edited, s, &cache);
            assert_eq!(incr.mode, SolveMode::Repropagate, "{}", s.name());
            let scratch = analyze_with(&edited, s, SolveOptions::default());
            assert_eq!(incr.materialize(), scratch.materialize(), "{}", s.name());
            assert_eq!(incr.indirect_targets, scratch.indirect_targets);
            assert_eq!(incr.constraint_count, scratch.constraint_count);
            let targets = incr.indirect_call_targets("vfs_read", "ops->read");
            assert!(!targets.contains("pipe_read"), "stale target must die");
        }
    }

    /// Provenance mode changes nothing about the answer, records a
    /// derivation for every fact, and every chain walks back to a seed.
    #[test]
    fn provenance_solve_is_identical_and_every_chain_reaches_a_seed() {
        let p = parse_program(OPS_TABLE).unwrap();
        for s in [
            Sensitivity::Steensgaard,
            Sensitivity::Andersen,
            Sensitivity::AndersenField,
        ] {
            let plain = analyze_with(&p, s, SolveOptions::default());
            let traced = analyze_with(&p, s, SolveOptions::default().with_provenance(true));
            assert_eq!(traced.materialize(), plain.materialize(), "{}", s.name());
            assert_eq!(traced.indirect_targets, plain.indirect_targets);
            assert_eq!(traced.constraint_count, plain.constraint_count);
            assert!(!plain.has_provenance());
            assert!(traced.has_provenance());
            assert_eq!(plain.provenance_facts(), 0);
            assert!(traced.provenance_facts() > 0);
            assert!(traced.provenance_bytes() > 0);

            let n = verify_derivations(&p, &traced)
                .unwrap_or_else(|e| panic!("{}: replay failed: {e}", s.name()));
            assert_eq!(n, traced.provenance_facts());

            // Every fact in the solution explains itself, seed-first.
            for (loc, set) in &traced.materialize() {
                for tgt in set {
                    let chain = traced
                        .why(loc, tgt)
                        .unwrap_or_else(|| panic!("{}: no chain for {loc} ∋ {tgt}", s.name()));
                    assert!(!chain.is_empty());
                    assert_eq!(chain[0].rule, "addr-of", "chains start at a seed");
                    assert!(chain[0].src.is_none());
                    let last = chain.last().unwrap();
                    assert_eq!((&last.dst, &last.pointee), (loc, tgt));
                }
            }
        }
    }

    /// An indirect-call resolution explains itself end to end: the chain
    /// behind "ops->read may call ext2_read" crosses the call-bind /
    /// load machinery and renders as readable lines.
    #[test]
    fn indirect_call_targets_explain_their_derivation() {
        let p = parse_program(OPS_TABLE).unwrap();
        let r = analyze_with(
            &p,
            Sensitivity::AndersenField,
            SolveOptions::default().with_provenance(true),
        );
        let targets = r.indirect_call_targets("vfs_read", "ops->read");
        assert!(targets.contains("ext2_read"));
        let chain = r
            .why_indirect(&p, "vfs_read", "ops->read", "ext2_read")
            .expect("resolved target must have a derivation");
        assert_eq!(chain[0].rule, "addr-of");
        assert!(
            chain.iter().any(|l| l.rule != "addr-of"),
            "resolution flows through at least one propagation step: {chain:?}"
        );
        for link in &chain {
            assert!(!link.render().is_empty());
        }
        // Unknown target: no chain, no panic.
        assert!(r
            .why_indirect(&p, "vfs_read", "ops->read", "missing")
            .is_none());
    }

    /// Provenance through the incremental path re-propagates with
    /// recording on: the result still matches, replays, and keeps working
    /// after an edit.
    #[test]
    fn incremental_provenance_replays_after_an_edit() {
        let p = parse_program(OPS_TABLE).unwrap();
        let cache = ConstraintCache::new();
        let opts = SolveOptions::default().with_provenance(true);
        let cold = analyze_incremental_with(
            &p,
            &ProgramHashes::of(&p),
            Sensitivity::AndersenField,
            &cache,
            opts,
        );
        assert!(cold.has_provenance());
        verify_derivations(&p, &cold).expect("cold incremental replay");

        let edited_src = OPS_TABLE.replace("return vfs_read(&ext2_ops, n);", "return 0;");
        let edited = parse_program(&edited_src).unwrap();
        let warm = analyze_incremental_with(
            &edited,
            &ProgramHashes::of(&edited),
            Sensitivity::AndersenField,
            &cache,
            opts,
        );
        assert_eq!(warm.mode, SolveMode::Repropagate);
        assert!(warm.has_provenance());
        verify_derivations(&edited, &warm).expect("post-edit incremental replay");
        let scratch = analyze_with(&edited, Sensitivity::AndersenField, opts);
        assert_eq!(warm.materialize(), scratch.materialize());
        assert_eq!(warm.indirect_targets, scratch.indirect_targets);
    }
}
