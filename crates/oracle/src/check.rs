//! The subsumption check: every dynamic fact must be covered by the
//! static over-approximation.
//!
//! * **points-to** — for every observed pointer store, some abstraction of
//!   the concrete target must be in the static `pts` set of the slot the
//!   analysis uses for that lvalue (stores through pointers check
//!   transitively through the pointer's own points-to set);
//! * **indirect calls** — every function actually reached through a
//!   function pointer must be in `indirect_targets` for that site;
//! * **blocking-in-atomic** — every run-time blocking violation must be
//!   covered by a BlockStop finding against the same caller;
//! * **bad frees** — every free the VM's reference counts rejected must
//!   happen in a function whose CCount instrumentation covers a free site.
//!
//! A miss is a [`Violation`]. The same pass measures **precision**: the
//! fraction of each static claim that was dynamically witnessed.

use crate::absmap::{AbstractionMap, SlotKind};
use crate::dynfacts::{DynFacts, SlotId};
use ivy_analysis::pointsto::{Loc, PointsToResult, Sensitivity};
use ivy_blockstop::BlockStopReport;
use ivy_ccount::InstrumentationReport;
use serde_json::{Map, Value};
use std::collections::{BTreeMap, BTreeSet};

/// The static side of the differential comparison at one sensitivity.
pub struct StaticModel {
    /// Precision level of `pts` and `blockstop`.
    pub sensitivity: Sensitivity,
    /// The points-to solution (worklist solver).
    pub pts: PointsToResult,
    /// BlockStop at the same sensitivity, default configuration (no
    /// silencing assertions — the oracle validates the raw analysis).
    pub blockstop: BlockStopReport,
    /// Program-level CCount instrumentation report.
    pub ccount_program: InstrumentationReport,
    /// Per-function CCount instrumentation reports
    /// (`ivy_ccount::analyze_by_function`).
    pub ccount_by_fn: BTreeMap<String, InstrumentationReport>,
}

/// Which analysis a violation indicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ViolationKind {
    /// A dynamic points-to fact outside the static `pts` set.
    PointsTo,
    /// A dynamically-reached indirect-call target missing statically.
    IndirectCall,
    /// A run-time blocking-in-atomic event with no BlockStop finding.
    BlockStop,
    /// A VM-caught bad free in a function CCount did not instrument.
    CCount,
}

impl ViolationKind {
    /// Stable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::PointsTo => "points-to",
            ViolationKind::IndirectCall => "indirect-call",
            ViolationKind::BlockStop => "blockstop",
            ViolationKind::CCount => "ccount",
        }
    }
}

/// One soundness violation: a concrete execution produced a fact the
/// static analysis' answer does not cover.
#[derive(Debug, Clone)]
pub struct Violation {
    /// The analysis indicted.
    pub kind: ViolationKind,
    /// Sensitivity at which the static side ran.
    pub sensitivity: Sensitivity,
    /// What was observed and what was missing.
    pub message: String,
    /// A stable identity for the violated fact (used to confirm a
    /// minimized reproducer still exhibits the same violation).
    pub key: String,
    /// What the static side *did* derive for the violated slot: a
    /// provenance chain for one claimed fact when the model was solved
    /// with tracing, or a statement of which seed constraint is missing.
    /// Diagnosing an unsoundness starts here — it says whether the
    /// constraint generator missed the seed entirely or the solver failed
    /// to propagate it.
    pub static_derivation: Option<String>,
    /// A minimized reproducer, attached by the harness.
    pub reproducer: Option<crate::report::Reproducer>,
}

/// `witnessed / claimed` for one analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrecisionRow {
    /// Static claims dynamically witnessed.
    pub witnessed: usize,
    /// Static claims in scope of the traced executions.
    pub claimed: usize,
}

impl PrecisionRow {
    /// Witnessed fraction (1.0 when nothing was claimed).
    pub fn rate(&self) -> f64 {
        if self.claimed == 0 {
            1.0
        } else {
            self.witnessed as f64 / self.claimed as f64
        }
    }

    fn add(&mut self, witnessed: usize, claimed: usize) {
        self.witnessed += witnessed;
        self.claimed += claimed;
    }
}

/// Precision of every checker at one sensitivity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Precision {
    /// Points-to: witnessed pointees over claimed pointees, across the
    /// observed slots.
    pub pointsto: PrecisionRow,
    /// Indirect calls: witnessed targets over claimed targets, across the
    /// observed sites.
    pub indirect: PrecisionRow,
    /// BlockStop: findings confirmed by a run-time violation over total
    /// findings.
    pub blockstop: PrecisionRow,
    /// CCount: functions with an observed bad free over functions with
    /// instrumented free sites.
    pub ccount: PrecisionRow,
}

impl Precision {
    /// Serializes to the stable JSON object used in the oracle report.
    pub fn to_value(&self) -> Value {
        let row = |r: &PrecisionRow| {
            let mut m = Map::new();
            m.insert("witnessed".into(), Value::from(r.witnessed as u64));
            m.insert("claimed".into(), Value::from(r.claimed as u64));
            m.insert("rate".into(), Value::from(r.rate()));
            Value::Object(m)
        };
        let mut m = Map::new();
        m.insert("pointsto".into(), row(&self.pointsto));
        m.insert("indirect".into(), row(&self.indirect));
        m.insert("blockstop".into(), row(&self.blockstop));
        m.insert("ccount".into(), row(&self.ccount));
        Value::Object(m)
    }
}

/// Checks every dynamic fact against a static model; returns the
/// violations and the precision measurement. The program is only consulted
/// when a violation needs its static-side derivation explained (indirect
/// sites are found by regenerating constraints).
pub fn check_subsumption(
    program: &ivy_cmir::ast::Program,
    map: &AbstractionMap,
    facts: &DynFacts,
    model: &StaticModel,
) -> (Vec<Violation>, Precision) {
    let _span = ivy_telemetry::span("oracle/subsumption", model.sensitivity.name());
    let timer = ivy_telemetry::counters_enabled().then(std::time::Instant::now);
    let mut violations = Vec::new();
    let mut precision = Precision::default();
    let s = model.sensitivity;
    let pts = model.pts.materialize();
    let empty: BTreeSet<Loc> = BTreeSet::new();
    let pts_of = |l: &Loc| pts.get(l).unwrap_or(&empty);

    // ---- points-to subsumption --------------------------------------
    // Witnessed pointees per materialized slot location, for precision.
    let mut witnessed: BTreeMap<Loc, BTreeSet<Loc>> = BTreeMap::new();
    for (slot, candidates) in &facts.ptr_facts {
        let cand: BTreeSet<&Loc> = candidates.iter().collect();
        let kinds: Vec<SlotKind> = match slot {
            SlotId::Lvalue(f, text, true) => {
                vec![SlotKind::Direct(vec![crate::absmap::AbsLoc::Exact(
                    Loc::Local {
                        func: f.clone(),
                        var: text.clone(),
                    },
                )])]
            }
            SlotId::Lvalue(f, text, false) => match map.slot(f, text) {
                Some(e) => e.kinds.clone(),
                None => continue,
            },
            SlotId::Param(f, p) => vec![SlotKind::Direct(vec![crate::absmap::AbsLoc::Exact(
                Loc::Local {
                    func: f.clone(),
                    var: p.clone(),
                },
            )])],
            SlotId::Ret(f) => vec![SlotKind::Direct(vec![crate::absmap::AbsLoc::Exact(
                Loc::Ret(f.clone()),
            )])],
        };
        let mut covered = false;
        let mut opaque = false;
        // The materialized locations checked, retained so a miss can report
        // what the static side did derive for them.
        let mut checked: Vec<Loc> = Vec::new();
        for kind in &kinds {
            match kind {
                SlotKind::Opaque => opaque = true,
                SlotKind::Direct(locs) => {
                    for l in locs {
                        let l = l.materialize(s);
                        checked.push(l.clone());
                        let set = pts_of(&l);
                        let hit: Vec<Loc> =
                            set.iter().filter(|p| cand.contains(p)).cloned().collect();
                        if !hit.is_empty() {
                            covered = true;
                            witnessed.entry(l).or_default().extend(hit);
                        }
                    }
                }
                SlotKind::ThroughPtr(locs) => {
                    for l in locs {
                        let l = l.materialize(s);
                        for t in pts_of(&l) {
                            if pts_of(t).iter().any(|p| cand.contains(p)) {
                                covered = true;
                            }
                        }
                    }
                }
            }
        }
        if !covered && !opaque {
            violations.push(Violation {
                kind: ViolationKind::PointsTo,
                sensitivity: s,
                message: format!(
                    "observed target {:?} of `{}` is outside the static points-to set",
                    candidates,
                    slot.describe()
                ),
                key: format!("pts:{slot:?}"),
                static_derivation: Some(describe_static_pts(&model.pts, &checked)),
                reproducer: None,
            });
        }
    }
    // Precision over the *directly observed* slots only: slots the traced
    // executions never touched say nothing about precision.
    for (l, wit) in &witnessed {
        precision.pointsto.add(wit.len(), pts_of(l).len());
    }

    // ---- indirect-call subsumption ----------------------------------
    let mut observed_sites: BTreeMap<(String, String), BTreeSet<&str>> = BTreeMap::new();
    for (caller, text, target) in &facts.indirect_facts {
        observed_sites
            .entry((caller.clone(), text.clone()))
            .or_default()
            .insert(target);
        let covered = model
            .pts
            .indirect_targets_for(caller, text)
            .map(|t| t.contains(target))
            .unwrap_or(false);
        if !covered {
            violations.push(Violation {
                kind: ViolationKind::IndirectCall,
                sensitivity: s,
                message: format!(
                    "indirect call `{text}` in `{caller}` reached `{target}`, \
                     which the static target set does not contain"
                ),
                key: format!("indirect:{caller}:{text}:{target}"),
                static_derivation: Some(describe_static_indirect(program, model, caller, text)),
                reproducer: None,
            });
        }
    }
    for ((caller, text), targets) in &observed_sites {
        let stat = model.pts.indirect_call_targets(caller, text);
        precision.indirect.add(
            targets.iter().filter(|t| stat.contains(**t)).count(),
            stat.len(),
        );
    }

    // ---- blocking-in-atomic subsumption -----------------------------
    for (caller, callee) in &facts.blocking_facts {
        let covered = model.blockstop.covers_runtime_violation(caller, callee);
        if !covered {
            violations.push(Violation {
                kind: ViolationKind::BlockStop,
                sensitivity: s,
                message: format!(
                    "run-time blocking call `{caller}` -> `{callee}` in atomic context \
                     has no BlockStop finding against `{caller}`"
                ),
                key: format!("blockstop:{caller}:{callee}"),
                static_derivation: Some(describe_static_blockstop(model, caller)),
                reproducer: None,
            });
        }
    }
    let runtime_callers: BTreeSet<&String> = facts.blocking_facts.iter().map(|(c, _)| c).collect();
    precision.blockstop.add(
        model
            .blockstop
            .findings
            .iter()
            .filter(|f| runtime_callers.contains(&f.caller))
            .count(),
        model.blockstop.findings.len(),
    );

    // ---- bad-free subsumption ---------------------------------------
    for (func, delayed) in &facts.bad_free_facts {
        let per_fn = model
            .ccount_by_fn
            .get(func)
            .map(|r| r.free_sites)
            .unwrap_or(0);
        // A deferred free completes at the end of its delayed-free scope,
        // which can live in a different function than the `kfree` call;
        // any instrumented free site in the program covers it then.
        let covered =
            per_fn > 0 || (*delayed && model.ccount_program.free_sites > 0) || func.is_empty();
        if !covered {
            violations.push(Violation {
                kind: ViolationKind::CCount,
                sensitivity: s,
                message: format!(
                    "run-time bad free in `{func}` but CCount instruments no free site there"
                ),
                key: format!("ccount:{func}"),
                static_derivation: Some(format!(
                    "static side instruments {} free site(s) program-wide, none in `{func}` \
                     — the free-site seed for this function is missing",
                    model.ccount_program.free_sites
                )),
                reproducer: None,
            });
        }
    }
    let bad_free_fns: BTreeSet<&String> = facts.bad_free_facts.iter().map(|(f, _)| f).collect();
    let claimed_fns = model
        .ccount_by_fn
        .iter()
        .filter(|(_, r)| r.free_sites > 0)
        .count();
    precision.ccount.add(
        model
            .ccount_by_fn
            .iter()
            .filter(|(f, r)| r.free_sites > 0 && bad_free_fns.contains(f))
            .count(),
        claimed_fns,
    );

    if let Some(start) = timer {
        ivy_telemetry::counter_labeled(
            "ivy_oracle_subsumption_micros_total",
            "sensitivity",
            model.sensitivity.name(),
            start.elapsed().as_micros() as u64,
        );
        ivy_telemetry::counter_labeled(
            "ivy_oracle_subsumption_checks_total",
            "sensitivity",
            model.sensitivity.name(),
            1,
        );
    }

    (violations, precision)
}

/// What the static side *did* derive for the checked slot locations: the
/// shortest derivation for one claimed pointee when the model was solved
/// with provenance, the claimed set otherwise, or — when the set is
/// empty — the statement that no seed constraint reaches the slot at all.
fn describe_static_pts(pts: &PointsToResult, checked: &[Loc]) -> String {
    for l in checked {
        let set = pts.points_to(l);
        let Some(first) = set.iter().next() else {
            continue;
        };
        if let Some(chain) = pts.why(l, first) {
            let lines: Vec<String> = chain
                .iter()
                .map(|c| format!("    {}", c.render()))
                .collect();
            return format!(
                "static side does derive `{l}` -> `{first}`:\n{}",
                lines.join("\n")
            );
        }
        return format!(
            "static side claims `{l}` may point to: {} \
             (this model has no recorded derivation for it)",
            set.iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    match checked.first() {
        Some(l) => format!(
            "static side derives nothing for `{l}`: no seed constraint \
             (address-of or allocation) ever reaches this slot — the seed for \
             the observed target is missing"
        ),
        None => "static side has no abstraction for this slot".to_string(),
    }
}

/// The static side of an indirect-call miss: the targets it did resolve
/// with the derivation of one of them, or the statement that the
/// function-pointer seed is missing entirely.
fn describe_static_indirect(
    program: &ivy_cmir::ast::Program,
    model: &StaticModel,
    caller: &str,
    text: &str,
) -> String {
    let targets = model.pts.indirect_call_targets(caller, text);
    let listed = targets.iter().cloned().collect::<Vec<_>>().join(", ");
    let Some(first) = targets.iter().next() else {
        return format!(
            "static side resolves no target for `{text}` in `{caller}` — the \
             address-of seed that would make the callee point at the observed \
             function is missing"
        );
    };
    if let Some(chain) = model.pts.why_indirect(program, caller, text, first) {
        let lines: Vec<String> = chain
            .iter()
            .map(|c| format!("    {}", c.render()))
            .collect();
        return format!(
            "static side does resolve `{text}` to {{{listed}}}; derivation for `{first}`:\n{}",
            lines.join("\n")
        );
    }
    format!("static side does resolve `{text}` to {{{listed}}} (solved without provenance)")
}

/// The static side of a blocking-in-atomic miss: the findings BlockStop
/// did raise against the caller, or which seed (atomic-region membership
/// or may-block propagation) never reached it.
fn describe_static_blockstop(model: &StaticModel, caller: &str) -> String {
    let findings: Vec<String> = model
        .blockstop
        .findings
        .iter()
        .filter(|f| f.caller == caller)
        .map(|f| format!("`{}` ({})", f.callee_text, f.example_chain.join(" -> ")))
        .collect();
    if !findings.is_empty() {
        return format!(
            "static side does flag {} other call(s) in `{caller}`: {}",
            findings.len(),
            findings.join("; ")
        );
    }
    if model.blockstop.atomic_functions.contains(caller) {
        "static side does consider the caller atomic but never saw the callee \
         as may-block — the may-block propagation seed is missing"
            .to_string()
    } else {
        format!(
            "static side never marks `{caller}` atomic — the atomic-region seed \
             (irq handler or spinlock path reaching it) is missing"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::absmap::AbstractionMap;

    /// A model whose static answers are all empty: every defect-class
    /// fact must become a violation (pins the BlockStop and CCount
    /// subsumption paths without needing an unsound analysis).
    fn empty_model() -> StaticModel {
        StaticModel {
            sensitivity: Sensitivity::Andersen,
            pts: PointsToResult::default(),
            blockstop: BlockStopReport::default(),
            ccount_program: InstrumentationReport::default(),
            ccount_by_fn: BTreeMap::new(),
        }
    }

    #[test]
    fn uncovered_defect_events_are_violations() {
        let mut facts = DynFacts::default();
        facts
            .blocking_facts
            .insert(("poll".to_string(), "msleep".to_string()));
        facts.bad_free_facts.insert(("teardown".to_string(), false));
        let map = AbstractionMap::default();
        let program = ivy_cmir::parser::parse_program("fn main() { }").unwrap();
        let (violations, _) = check_subsumption(&program, &map, &facts, &empty_model());
        let kinds: Vec<ViolationKind> = violations.iter().map(|v| v.kind).collect();
        assert!(kinds.contains(&ViolationKind::BlockStop));
        assert!(kinds.contains(&ViolationKind::CCount));
        // Every violation explains what the static side did (or did not)
        // derive — a miss is only actionable with its missing seed named.
        assert!(violations.iter().all(|v| v
            .static_derivation
            .as_deref()
            .is_some_and(|d| !d.is_empty())));
    }

    #[test]
    fn delayed_bad_frees_are_covered_by_any_instrumented_site() {
        let mut facts = DynFacts::default();
        facts.bad_free_facts.insert(("scope_end".to_string(), true));
        let mut model = empty_model();
        model.ccount_program.free_sites = 3;
        let map = AbstractionMap::default();
        let program = ivy_cmir::parser::parse_program("fn main() { }").unwrap();
        let (violations, _) = check_subsumption(&program, &map, &facts, &model);
        assert!(
            violations.is_empty(),
            "a deferred free may complete away from its call site: {violations:?}"
        );
    }
}
