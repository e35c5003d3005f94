//! Call-graph construction and propagation utilities.
//!
//! "A call graph is a directed graph where each node corresponds to a
//! function and each outgoing edge represents the functions that it might
//! call. The major challenge is to account for calls through function
//! pointers." (§2.3). Indirect calls are resolved with the points-to results
//! from [`crate::pointsto`]; calls inside functions marked `inline_asm` are
//! invisible, which is recorded as a soundness caveat in the graph.
//!
//! A bare callee name is classified as every analysis classifies it (see
//! [`ivy_cmir::facts::Callee`]): a parameter, local or global of that name
//! shadows a function, and the call goes through it.

use crate::pointsto::PointsToResult;
use ivy_cmir::ast::Program;
use ivy_cmir::facts::{Callee, FnFacts};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A whole-program call graph.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CallGraph {
    /// Outgoing edges: caller → set of callees.
    pub edges: BTreeMap<String, BTreeSet<String>>,
    /// Functions whose outgoing edges are incomplete because they contain
    /// inline assembly (the paper's explicit soundness caveat).
    pub opaque_functions: BTreeSet<String>,
}

impl CallGraph {
    /// Builds the call graph of a program using points-to results for
    /// function-pointer calls.
    pub fn build(program: &Program, pointsto: &PointsToResult) -> CallGraph {
        let mut cg = CallGraph::default();
        for func in program.functions.iter().filter(|f| f.body.is_some()) {
            if func.attrs.inline_asm {
                cg.opaque_functions.insert(func.name.clone());
            }
            let callees = cg.edges.entry(func.name.clone()).or_default();
            for call in FnFacts::of(func).calls {
                match call.callee {
                    Callee::Name { name, .. } if program.global(&name).is_none() => {
                        if program.function(&name).is_some() {
                            callees.insert(name);
                        }
                    }
                    other => {
                        if let Some(targets) =
                            pointsto.indirect_targets_for(&func.name, other.text())
                        {
                            callees.extend(targets.iter().cloned());
                        }
                    }
                }
            }
        }
        cg
    }

    /// The callees of a function (empty if unknown).
    pub fn callees(&self, func: &str) -> &BTreeSet<String> {
        static NONE: BTreeSet<String> = BTreeSet::new();
        self.edges.get(func).unwrap_or(&NONE)
    }

    /// The callers of a function.
    pub fn callers(&self, func: &str) -> BTreeSet<String> {
        self.edges
            .iter()
            .filter(|(_, callees)| callees.contains(func))
            .map(|(caller, _)| caller.clone())
            .collect()
    }

    /// Propagates a property backwards through the call graph: starting from
    /// the `seeds` (functions that *have* the property, e.g. "may block"),
    /// returns every function that can reach a seed through call edges —
    /// i.e. every function that may transitively exhibit the property.
    ///
    /// This is exactly the paper's "propagate this information backwards
    /// through the call graph to get a sound approximation of the set of
    /// functions that might block".
    pub fn propagate_backwards(&self, seeds: &BTreeSet<String>) -> BTreeSet<String> {
        let mut result: BTreeSet<String> = seeds.clone();
        let mut queue: VecDeque<String> = seeds.iter().cloned().collect();
        while let Some(f) = queue.pop_front() {
            for caller in self.callers(&f) {
                if result.insert(caller.clone()) {
                    queue.push_back(caller);
                }
            }
        }
        result
    }

    /// Longest acyclic call-chain depth starting from `root`, following call
    /// edges, where each function contributes `weight(name)`.
    ///
    /// Used by the stack-depth extension analysis (§3.1): with per-function
    /// frame sizes as weights this bounds worst-case stack usage. Cycles
    /// (recursion) are reported separately via [`CallGraph::recursive_functions`].
    pub fn max_weighted_depth(&self, root: &str, weight: &dyn Fn(&str) -> u64) -> u64 {
        let mut memo: BTreeMap<String, u64> = BTreeMap::new();
        let mut on_stack: BTreeSet<String> = BTreeSet::new();
        self.depth_rec(root, weight, &mut memo, &mut on_stack)
    }

    fn depth_rec(
        &self,
        f: &str,
        weight: &dyn Fn(&str) -> u64,
        memo: &mut BTreeMap<String, u64>,
        on_stack: &mut BTreeSet<String>,
    ) -> u64 {
        if let Some(v) = memo.get(f) {
            return *v;
        }
        if !on_stack.insert(f.to_string()) {
            // Recursive cycle: cut it off (run-time checks cover recursion,
            // per §3.1).
            return 0;
        }
        let mut best = 0;
        for callee in self.callees(f) {
            best = best.max(self.depth_rec(callee, weight, memo, on_stack));
        }
        on_stack.remove(f);
        let total = best + weight(f);
        memo.insert(f.to_string(), total);
        total
    }

    /// Functions involved in recursion (strongly connected components of size
    /// greater than one, or self-loops).
    pub fn recursive_functions(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for f in self.edges.keys() {
            if self.callees(f).contains(f) {
                out.insert(f.clone());
                continue;
            }
            // f is recursive if it can reach itself through at least one edge.
            let mut seen = BTreeSet::new();
            let mut queue: VecDeque<String> = self.callees(f).iter().cloned().collect();
            while let Some(g) = queue.pop_front() {
                if g == *f {
                    out.insert(f.clone());
                    break;
                }
                if seen.insert(g.clone()) {
                    queue.extend(self.callees(&g).iter().cloned());
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pointsto::{analyze, Sensitivity};
    use ivy_cmir::parser::parse_program;

    const KERNEL: &str = r#"
        struct tty_ops {
            flush: fnptr() -> void;
        }
        global console_ops: struct tty_ops;

        #[blocking]
        fn wait_for_completion() { }

        fn read_chan() { wait_for_completion(); }

        fn flush_to_ldisc() { console_ops.flush(); }

        fn register_console() { console_ops.flush = read_chan; }

        #[inline_asm]
        fn switch_to() { }

        fn schedule() { switch_to(); }

        fn recurse(n: u32) { if (n > 0) { recurse(n - 1); } }
    "#;

    fn graph() -> CallGraph {
        let p = parse_program(KERNEL).unwrap();
        let pts = analyze(&p, Sensitivity::AndersenField);
        CallGraph::build(&p, &pts)
    }

    #[test]
    fn direct_edges_present() {
        let cg = graph();
        assert!(cg.callees("read_chan").contains("wait_for_completion"));
        assert!(cg.callees("schedule").contains("switch_to"));
    }

    #[test]
    fn indirect_edge_resolved_via_pointsto() {
        let cg = graph();
        assert!(
            cg.callees("flush_to_ldisc").contains("read_chan"),
            "edges: {:?}",
            cg.callees("flush_to_ldisc")
        );
    }

    #[test]
    fn backwards_propagation_finds_blockers() {
        let cg = graph();
        let seeds = BTreeSet::from(["wait_for_completion".to_string()]);
        let may_block = cg.propagate_backwards(&seeds);
        assert!(may_block.contains("read_chan"));
        assert!(
            may_block.contains("flush_to_ldisc"),
            "through the fn pointer"
        );
        assert!(!may_block.contains("schedule"));
    }

    #[test]
    fn opaque_functions_recorded() {
        let cg = graph();
        assert!(cg.opaque_functions.contains("switch_to"));
    }

    #[test]
    fn callers_inverse_of_callees() {
        let cg = graph();
        assert!(cg.callers("wait_for_completion").contains("read_chan"));
    }

    #[test]
    fn recursion_detected_and_depth_bounded() {
        let cg = graph();
        assert!(cg.recursive_functions().contains("recurse"));
        // Depth computation terminates despite the cycle.
        let d = cg.max_weighted_depth("recurse", &|_| 100);
        assert!(d >= 100);
    }

    /// A parameter named like a function shadows it: the call goes
    /// through the parameter, as points-to and BlockStop read it.
    #[test]
    fn a_function_typed_parameter_shadows_a_same_named_function() {
        let p = parse_program(
            r#"
            #[blocking]
            extern fn msleep(ms: u32);
            fn f() { }
            fn g() { msleep(1); }
            fn sleeper() { g(); }
            #[irq_handler]
            fn irq(f: fnptr() -> void) { f(); }
            fn main() { irq(sleeper); }
            "#,
        )
        .unwrap();
        let cg = CallGraph::build(&p, &analyze(&p, Sensitivity::AndersenField));
        assert_eq!(cg.callees("irq"), &BTreeSet::from(["sleeper".to_string()]));
    }

    #[test]
    fn weighted_depth_adds_along_chain() {
        let cg = graph();
        let d = cg.max_weighted_depth("read_chan", &|_| 64);
        assert_eq!(d, 128, "read_chan -> wait_for_completion = 2 frames");
    }
}
