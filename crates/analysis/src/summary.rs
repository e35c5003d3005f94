//! Per-function summaries, SCC condensation, and dependency hashing.
//!
//! The analysis engine (`ivy-engine`) schedules checker work bottom-up over
//! the call graph and caches per-function results across runs. Both needs
//! are served from here:
//!
//! * [`Condensation`] — Tarjan SCC condensation of a [`CallGraph`] plus a
//!   bottom-up level order (level 0 = leaf SCCs), the unit of engine
//!   scheduling.
//! * a *cone hash* per function ([`ProgramSummaries::cone_hash`]), mixing
//!   the span-insensitive content hash of the definition
//!   ([`ivy_cmir::content::function_content_hash`]) with the cone hashes of
//!   everything reachable from the function. Two functions with equal cone
//!   hashes have structurally identical bodies *and* structurally identical
//!   transitive callees, which is what makes the hash a sound cache key for
//!   bottom-up analyses.
//!
//! That is all the engine reads, so it is all a [`ProgramSummaries`] keeps:
//! callee sets stay in the call graph, and the per-function SCC index and
//! content hash live only while the summaries are built.

use crate::callgraph::CallGraph;
use ivy_cmir::ast::Program;
use std::collections::{BTreeMap, BTreeSet};

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Mixes a value into an existing hash (order-sensitive).
pub fn mix(hash: u64, value: u64) -> u64 {
    let mut h = hash ^ value.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 29;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^ (h >> 32)
}

/// SCC condensation of a call graph with a bottom-up schedule.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Condensation {
    /// The strongly connected components; members sorted by name.
    pub sccs: Vec<Vec<String>>,
    /// Bottom-up waves of SCC indices: every SCC in `levels[i]` only calls
    /// into SCCs at levels `< i`, so all SCCs of one level are independent
    /// once the previous levels are done.
    pub levels: Vec<Vec<usize>>,
}

/// Summaries for a whole program: the engine's schedule and cache keys.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProgramSummaries {
    /// Function name → cone hash (the definition plus the cone hashes of
    /// all transitive callees, SCC-aware so recursion is well-defined).
    pub cone_hashes: BTreeMap<String, u64>,
    /// The condensation that orders the functions bottom-up.
    pub condensation: Condensation,
}

impl ProgramSummaries {
    /// The cone hash for a function, if it is known.
    pub fn cone_hash(&self, func: &str) -> Option<u64> {
        self.cone_hashes.get(func).copied()
    }
}

/// Iterative Tarjan SCC over integer nodes `0..succ.len()`. Components are
/// emitted with successors before their predecessors (reverse topological
/// order of the condensation), members sorted ascending, so the call-graph
/// condensation below computes levels in one pass.
pub fn tarjan_sccs(succ: &[Vec<usize>]) -> Vec<Vec<usize>> {
    #[derive(Default, Clone)]
    struct NodeState {
        index: Option<usize>,
        lowlink: usize,
        on_stack: bool,
    }

    let mut state = vec![NodeState::default(); succ.len()];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS stack of (node, next-successor-position).
    for start in 0..succ.len() {
        if state[start].index.is_some() {
            continue;
        }
        let mut dfs: Vec<(usize, usize)> = vec![(start, 0)];
        while let Some(&mut (v, ref mut pos)) = dfs.last_mut() {
            if *pos == 0 {
                state[v].index = Some(next_index);
                state[v].lowlink = next_index;
                next_index += 1;
                stack.push(v);
                state[v].on_stack = true;
            }
            if let Some(&w) = succ[v].get(*pos) {
                *pos += 1;
                if state[w].index.is_none() {
                    dfs.push((w, 0));
                } else if state[w].on_stack {
                    state[v].lowlink = state[v].lowlink.min(state[w].index.expect("visited"));
                }
            } else {
                // v is finished.
                if state[v].lowlink == state[v].index.expect("visited") {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("stack non-empty");
                        state[w].on_stack = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    sccs.push(comp);
                }
                dfs.pop();
                if let Some(&mut (parent, _)) = dfs.last_mut() {
                    state[parent].lowlink = state[parent].lowlink.min(state[v].lowlink);
                }
            }
        }
    }
    sccs
}

/// Tarjan SCC over function names, as node indices; edges come from the
/// call graph (restricted to functions that exist in the program, so calls
/// to VM builtins do not create phantom nodes).
fn tarjan(nodes: &[&str], edges: &BTreeMap<String, BTreeSet<String>>) -> Vec<Vec<usize>> {
    let id_of: BTreeMap<&str, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let succ: Vec<Vec<usize>> = nodes
        .iter()
        .map(|n| {
            edges
                .get(*n)
                .map(|cs| {
                    cs.iter()
                        .filter_map(|c| id_of.get(c.as_str()).copied())
                        .collect()
                })
                .unwrap_or_default()
        })
        .collect();
    tarjan_sccs(&succ)
}

/// Builds the condensation of `cg` over the functions of `program`, with
/// the SCC index of every function name. Tarjan emits SCCs with callees
/// before callers, which directly yields the bottom-up level structure.
fn condense<'p>(program: &'p Program, cg: &CallGraph) -> (Condensation, BTreeMap<&'p str, usize>) {
    let nodes: Vec<&str> = program.functions.iter().map(|f| f.name.as_str()).collect();
    let comps = tarjan(&nodes, &cg.edges);
    let mut scc_of = BTreeMap::new();
    for (i, comp) in comps.iter().enumerate() {
        for &n in comp {
            scc_of.insert(nodes[n], i);
        }
    }
    let sccs: Vec<Vec<String>> = comps
        .iter()
        .map(|comp| {
            let mut names: Vec<String> = comp.iter().map(|&n| nodes[n].to_string()).collect();
            names.sort();
            names
        })
        .collect();

    // Level = 1 + max(level of callee SCCs); SCCs arrive in an order
    // where callees precede callers, so one pass suffices.
    let mut level_of = vec![0usize; sccs.len()];
    for (i, comp) in sccs.iter().enumerate() {
        let mut level = 0usize;
        for member in comp {
            if let Some(callees) = cg.edges.get(member) {
                for callee in callees {
                    if let Some(&j) = scc_of.get(callee.as_str()) {
                        if j != i {
                            level = level.max(level_of[j] + 1);
                        }
                    }
                }
            }
        }
        level_of[i] = level;
    }
    let max_level = level_of.iter().copied().max().unwrap_or(0);
    let mut levels: Vec<Vec<usize>> = vec![Vec::new(); max_level + 1];
    for (i, &l) in level_of.iter().enumerate() {
        levels[l].push(i);
    }
    (Condensation { sccs, levels }, scc_of)
}

/// Builds the summaries of a program over a call graph.
/// `content_hashes` holds each function's content hash in program order
/// ([`ivy_cmir::content::ProgramHashes::functions`]).
pub fn summarize(program: &Program, content_hashes: &[u64], cg: &CallGraph) -> ProgramSummaries {
    let (condensation, scc_of) = condense(program, cg);
    let content: BTreeMap<&str, u64> = program
        .functions
        .iter()
        .map(|f| f.name.as_str())
        .zip(content_hashes.iter().copied())
        .collect();

    // Cone hash per SCC, bottom-up (Tarjan order has callees first). The
    // SCC's hash mixes every member's content hash plus every callee SCC's
    // cone hash; a member's cone hash then re-mixes its own content so two
    // members of one SCC still hash differently.
    let mut scc_cone = vec![0u64; condensation.sccs.len()];
    for (i, comp) in condensation.sccs.iter().enumerate() {
        let mut h = fnv1a(b"scc");
        for member in comp {
            h = mix(h, content[member.as_str()]);
        }
        let mut callee_sccs: BTreeSet<usize> = BTreeSet::new();
        for member in comp {
            if let Some(callees) = cg.edges.get(member) {
                for callee in callees {
                    if let Some(&j) = scc_of.get(callee.as_str()) {
                        if j != i {
                            callee_sccs.insert(j);
                        }
                    }
                }
            }
        }
        for j in callee_sccs {
            h = mix(h, scc_cone[j]);
        }
        scc_cone[i] = h;
    }

    let cone_hashes = scc_of
        .iter()
        .map(|(&name, &scc)| (name.to_string(), mix(scc_cone[scc], content[name])))
        .collect();
    ProgramSummaries {
        cone_hashes,
        condensation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pointsto::{analyze, Sensitivity};
    use ivy_cmir::content::ProgramHashes;
    use ivy_cmir::parser::parse_program;

    const SRC: &str = r#"
        fn leaf() { }
        fn mid() { leaf(); }
        fn rec_a(n: u32) { if (n > 0) { rec_b(n - 1); } }
        fn rec_b(n: u32) { rec_a(n); mid(); }
        fn top() { rec_a(3); }
    "#;

    fn summaries(p: &Program, cg: &CallGraph) -> ProgramSummaries {
        summarize(p, &ProgramHashes::of(p).functions, cg)
    }

    fn build(src: &str) -> (Program, CallGraph) {
        let p = parse_program(src).unwrap();
        let pts = analyze(&p, Sensitivity::Steensgaard);
        let cg = CallGraph::build(&p, &pts);
        (p, cg)
    }

    #[test]
    fn condensation_groups_recursion_and_levels_are_bottom_up() {
        let (p, cg) = build(SRC);
        let (cond, scc_of) = condense(&p, &cg);
        let scc_rec_a = scc_of["rec_a"];
        assert_eq!(scc_rec_a, scc_of["rec_b"], "mutual recursion in one SCC");
        assert_ne!(scc_of["leaf"], scc_of["mid"]);
        // Every SCC's callees live at strictly lower levels.
        let level_of = |scc: usize| {
            cond.levels
                .iter()
                .position(|l| l.contains(&scc))
                .expect("every scc has a level")
        };
        assert!(level_of(scc_of["leaf"]) < level_of(scc_of["mid"]));
        assert!(level_of(scc_of["mid"]) < level_of(scc_rec_a));
        assert!(level_of(scc_rec_a) < level_of(scc_of["top"]));
    }

    #[test]
    fn cone_hash_changes_exactly_for_the_dirty_cone() {
        let (p1, cg1) = build(SRC);
        let s1 = summaries(&p1, &cg1);
        // Edit leaf(): everything reaching leaf is dirty, top/rec_* included.
        let edited = SRC.replace("fn leaf() { }", "fn leaf() { let x: u32 = 1; }");
        let (p2, cg2) = build(&edited);
        let s2 = summaries(&p2, &cg2);
        for dirty in ["leaf", "mid", "rec_a", "rec_b", "top"] {
            assert_ne!(
                s1.cone_hash(dirty),
                s2.cone_hash(dirty),
                "{dirty} should be dirty"
            );
        }

        // Edit top() only: the cone below it is untouched.
        let edited = SRC.replace("fn top() { rec_a(3); }", "fn top() { rec_a(4); }");
        let (p3, cg3) = build(&edited);
        let s3 = summaries(&p3, &cg3);
        assert_ne!(s1.cone_hash("top"), s3.cone_hash("top"));
        for clean in ["leaf", "mid", "rec_a", "rec_b"] {
            assert_eq!(
                s1.cone_hash(clean),
                s3.cone_hash(clean),
                "{clean} should be clean"
            );
        }
    }
}
