//! The retained naive reference solver.
//!
//! This is the seed's textbook solver, kept verbatim (minus the unsound
//! `iterations > 256` bailout, which has been deleted everywhere): rescan
//! every constraint each round, clone whole points-to sets on every
//! copy/load/store, append indirect-call bindings between rounds, repeat
//! until nothing changes. It reads the same interned batches the fast
//! solvers consume, but resolves every location id back to its [`Loc`]
//! through the interner and keeps its sets as `Loc`-keyed `BTreeMap`s, so
//! it shares no solver state with them. It is deliberately slow and
//! deliberately simple — the differential property tests (Klinger et
//! al.-style) assert the worklist solver's `pts` and `indirect_targets` are
//! identical to this implementation on generated programs, which is what
//! lets the fast path evolve without a soundness leap of faith.

use super::constraints::{IConstraint, ISite, InternedBatch, ProgramIndex};
use super::intern::{LocInterner, LocKey};
use super::{Loc, PointsToResult, Sensitivity};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Runs the reference solver to a true fixpoint (no iteration cap: the
/// constraint system is finite and monotone, so termination is by
/// construction). `batches` must have been generated against `interner`;
/// the bindings for indirect calls are interned into it as they appear.
pub(crate) fn solve_naive(
    index: &ProgramIndex<'_>,
    sensitivity: Sensitivity,
    batches: &[InternedBatch],
    interner: &mut LocInterner,
) -> PointsToResult {
    let mut constraints: Vec<IConstraint> = batches
        .iter()
        .flat_map(|b| b.constraints.iter().copied())
        .collect();
    let indirect_sites: Vec<&ISite> = batches.iter().flat_map(|b| &b.sites).collect();
    // `locs[id]` is the `Loc` behind location id `id`.
    let mut locs: Vec<Loc> = Vec::new();
    resolve_new(&mut locs, interner);

    let initial_constraints = constraints.len();
    let mut pts: BTreeMap<Loc, BTreeSet<Loc>> = BTreeMap::new();
    let mut bound: BTreeSet<(usize, String)> = BTreeSet::new();
    let mut iterations = 0usize;

    loop {
        iterations += 1;
        let mut changed = false;

        for c in &constraints {
            match *c {
                IConstraint::AddrOf { dst, loc } => {
                    changed |= pts
                        .entry(locs[dst as usize].clone())
                        .or_default()
                        .insert(locs[loc as usize].clone());
                }
                IConstraint::Copy { dst, src } => {
                    changed |= copy_into(&mut pts, &locs[dst as usize], &locs[src as usize]);
                }
                IConstraint::Load { dst, src } => {
                    let targets = pts.get(&locs[src as usize]).cloned().unwrap_or_default();
                    for t in targets {
                        changed |= copy_into(&mut pts, &locs[dst as usize], &t);
                    }
                }
                IConstraint::Store { dst, src } => {
                    let targets = pts.get(&locs[dst as usize]).cloned().unwrap_or_default();
                    for t in targets {
                        changed |= copy_into(&mut pts, &t, &locs[src as usize]);
                    }
                }
            }
        }

        // Resolve indirect calls discovered so far: bind arguments and return
        // values for every function the callee may point to.
        let mut new_constraints = Vec::new();
        for (i, site) in indirect_sites.iter().enumerate() {
            let callees: Vec<String> = pts
                .get(&locs[site.callee as usize])
                .map(|s| {
                    s.iter()
                        .filter_map(|l| match l {
                            Loc::Func(f) => Some(f.clone()),
                            _ => None,
                        })
                        .collect()
                })
                .unwrap_or_default();
            for callee in callees {
                if !bound.insert((i, callee.clone())) {
                    continue;
                }
                changed = true;
                if let Some(f) = index.function(&callee) {
                    let func = interner.sym(&callee);
                    for (idx, param) in f.params.iter().enumerate() {
                        if let Some(&arg) = site.args.get(idx) {
                            let var = interner.sym(&param.name);
                            new_constraints.push(IConstraint::Copy {
                                dst: interner.intern(LocKey::Local { func, var }),
                                src: arg,
                            });
                        }
                    }
                    new_constraints.push(IConstraint::Copy {
                        dst: site.result,
                        src: interner.intern(LocKey::Ret(func)),
                    });
                }
            }
        }
        resolve_new(&mut locs, interner);
        if sensitivity == Sensitivity::Steensgaard {
            // Equality-based: every copy constraint is bidirectional.
            let reversed: Vec<IConstraint> = new_constraints
                .iter()
                .filter_map(|c| match *c {
                    IConstraint::Copy { dst, src } => {
                        Some(IConstraint::Copy { dst: src, src: dst })
                    }
                    _ => None,
                })
                .collect();
            new_constraints.extend(reversed);
        }
        constraints.extend(new_constraints);

        if !changed {
            break;
        }
    }

    let mut indirect_targets: HashMap<(String, String), BTreeSet<String>> = HashMap::new();
    for site in &indirect_sites {
        let targets: BTreeSet<String> = pts
            .get(&locs[site.callee as usize])
            .map(|s| {
                s.iter()
                    .filter_map(|l| match l {
                        Loc::Func(f) => Some(f.clone()),
                        _ => None,
                    })
                    .collect()
            })
            .unwrap_or_default();
        indirect_targets
            .entry((site.func.clone(), site.callee_text.clone()))
            .or_default()
            .extend(targets);
    }

    PointsToResult::from_naive(
        pts,
        indirect_targets,
        sensitivity,
        initial_constraints,
        constraints.len(),
        iterations,
    )
}

/// Extends `locs` with the `Loc` of every id interned since it was last
/// extended.
fn resolve_new(locs: &mut Vec<Loc>, interner: &LocInterner) {
    while locs.len() < interner.len() {
        locs.push(interner.resolve(locs.len() as u32));
    }
}

fn copy_into(pts: &mut BTreeMap<Loc, BTreeSet<Loc>>, dst: &Loc, src: &Loc) -> bool {
    if dst == src {
        return false;
    }
    let src_set = pts.get(src).cloned().unwrap_or_default();
    if src_set.is_empty() {
        return false;
    }
    let dst_set = pts.entry(dst.clone()).or_default();
    let before = dst_set.len();
    dst_set.extend(src_set);
    dst_set.len() != before
}
