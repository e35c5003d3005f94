//! `ivy-oracle` — the dynamic soundness oracle.
//!
//! The paper's whole pitch is *soundness*: analyses whose answers
//! over-approximate every real execution. This crate finally tests that
//! claim end to end, in the spirit of Klinger et al.'s differential
//! testing of program analyzers: `ivy-vm` executes the very KC programs
//! the analyses consume, an opt-in [`Tracer`](ivy_vm::Tracer) records the
//! concrete facts of those executions, and the oracle checks
//! **subsumption** — every dynamic fact must be inside the corresponding
//! static over-approximation:
//!
//! | dynamic fact                         | static answer that must cover it |
//! |--------------------------------------|----------------------------------|
//! | pointer target at a store            | `pts` of the lvalue's `Loc`      |
//! | function reached via function pointer| `indirect_targets` of the site   |
//! | blocking call in atomic context      | a BlockStop finding              |
//! | free rejected by reference counts    | a CCount-instrumented free site  |
//!
//! A miss is a soundness violation, reported with a **minimized
//! reproducer** (program + entry + input). The same run measures
//! **precision** — static claims never witnessed dynamically — giving the
//! paper's soundness/precision tradeoff as numbers per sensitivity.
//!
//! The mapping from run-time addresses to abstract locations is built at
//! "compile time" by [`AbstractionMap`], which mirrors the constraint
//! generator's syntax-directed abstraction (including its traversal-order
//! allocation-site numbering), so the comparison is apples to apples by
//! construction.
//!
//! # Example
//!
//! ```
//! use ivy_oracle::{Oracle, EntrySpec};
//! let program = ivy_cmir::parser::parse_program(r#"
//!     struct ops { go: fnptr(u32) -> u32; }
//!     global t: struct ops;
//!     fn f(x: u32) -> u32 { return x; }
//!     fn main(n: u32, m: u32) -> u32 { t.go = f; return t.go(n); }
//! "#).unwrap();
//! let report = Oracle::default().run(&program, &[EntrySpec::new("main", &[3, 0])]);
//! assert!(report.is_sound(), "{}", report.render());
//! assert!(report.facts.indirect_facts >= 1);
//! ```

#![warn(missing_docs)]

pub mod absmap;
pub mod check;
pub mod dynfacts;
pub mod report;

pub use absmap::{AbsLoc, AbstractionMap, SlotKind};
pub use check::{Precision, PrecisionRow, StaticModel, Violation, ViolationKind};
pub use dynfacts::{DynFacts, OracleTracer, SlotId};
pub use report::{FactCounts, OracleReport, Reproducer};

use ivy_analysis::pointsto::{self, Sensitivity};
use ivy_blockstop::BlockStop;
use ivy_cmir::ast::Program;
use ivy_cmir::pretty::pretty_program;
use ivy_cmir::types::Type;
use ivy_vm::{Value, Vm, VmConfig};
use std::collections::BTreeMap;
use std::sync::Arc;

/// An entry point to drive under the tracer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntrySpec {
    /// Entry function name.
    pub entry: String,
    /// Integer arguments (missing parameters default to 0 in the VM).
    pub args: Vec<i64>,
}

impl EntrySpec {
    /// Creates an entry spec.
    pub fn new(entry: impl Into<String>, args: &[i64]) -> EntrySpec {
        EntrySpec {
            entry: entry.into(),
            args: args.to_vec(),
        }
    }

    /// Picks entries for an arbitrary program: the kernelgen session
    /// entries when present (`kernel_boot` plus a few workloads), and
    /// otherwise up to `max` defined functions whose parameters are all
    /// integers (run with small arguments). Deterministic.
    pub fn defaults_for(program: &Program, max: usize) -> Vec<EntrySpec> {
        let mut out = Vec::new();
        let defined = |name: &str| {
            program
                .function(name)
                .map(|f| f.body.is_some())
                .unwrap_or(false)
        };
        if defined("kernel_boot") {
            // Eight cycles reach every seeded defect (the watchdog's
            // blocking bug fires on every eighth tick).
            out.push(EntrySpec::new("kernel_boot", &[8, 0]));
        }
        if defined("kernel_light_use") {
            out.push(EntrySpec::new("kernel_light_use", &[2, 256]));
        }
        for wl in ["wl_bw_pipe", "wl_lat_fs", "wl_lat_sig", "wl_bw_mmap_rd"] {
            if out.len() >= max {
                break;
            }
            if defined(wl) {
                out.push(EntrySpec::new(wl, &[3, 64]));
            }
        }
        if !out.is_empty() {
            return out;
        }
        // Fallback: all-integer-parameter functions, in program order.
        for f in program.functions.iter().filter(|f| f.body.is_some()) {
            if out.len() >= max {
                break;
            }
            let all_int = f.params.iter().all(|p| {
                matches!(
                    program.resolve_type(&p.ty),
                    Type::Int(_) | Type::Bool | Type::Void
                )
            });
            if all_int {
                out.push(EntrySpec::new(f.name.clone(), &[3, 8]));
            }
        }
        out
    }
}

/// Oracle configuration.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Sensitivities to validate (default: all three).
    pub sensitivities: Vec<Sensitivity>,
    /// VM step budget per entry (runaway protection; a step-limit trap
    /// still contributes its partial trace).
    pub max_steps: u64,
    /// Attach a minimized reproducer to (the first of) each violation.
    pub minimize: bool,
    /// Maximum candidate-removal attempts during minimization.
    pub minimize_budget: usize,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            sensitivities: vec![
                Sensitivity::Steensgaard,
                Sensitivity::Andersen,
                Sensitivity::AndersenField,
            ],
            max_steps: 4_000_000,
            minimize: true,
            minimize_budget: 128,
        }
    }
}

/// The oracle driver.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    /// Configuration.
    pub config: OracleConfig,
}

impl Oracle {
    /// An oracle with the given configuration.
    pub fn with_config(config: OracleConfig) -> Oracle {
        Oracle { config }
    }

    /// Executes the entries under the tracer and checks every configured
    /// sensitivity. One report per program; merge for a fleet.
    pub fn run(&self, program: &Program, entries: &[EntrySpec]) -> OracleReport {
        let map = Arc::new(AbstractionMap::build(program));
        let (facts, entries_run, traps) =
            trace_entries(program, entries, &map, self.config.max_steps);

        let ccount_program = ivy_ccount::analyze(program);
        let ccount_by_fn = ivy_ccount::analyze_by_function(program);

        let mut report = OracleReport {
            programs: 1,
            entries_run,
            traps,
            facts: FactCounts {
                ptr_facts: facts.ptr_facts.len(),
                indirect_facts: facts.indirect_facts.len(),
                blocking_facts: facts.blocking_facts.len(),
                bad_free_facts: facts.bad_free_facts.len(),
                check_failures: facts.check_failure_facts.len(),
                ptr_events: facts.ptr_events,
                unresolved: facts.unresolved,
            },
            observed_blocking: facts.blocking_facts.clone(),
            observed_bad_free_functions: facts
                .bad_free_facts
                .iter()
                .map(|(f, _)| f.clone())
                .collect(),
            ..OracleReport::default()
        };

        for &s in &self.config.sensitivities {
            let model = build_static_model(program, s, &ccount_program, &ccount_by_fn);
            let (mut violations, precision) =
                check::check_subsumption(program, &map, &facts, &model);
            if self.config.minimize {
                for v in &mut violations {
                    v.reproducer =
                        self.minimize(program, entries, &model.sensitivity, &v.key, &v.kind);
                }
            }
            report.violations.extend(violations);
            report.precision.insert(s.name().to_string(), precision);
        }
        report
    }

    /// Greedy delta-debugging of a violation witness: repeatedly drop
    /// functions (entry excluded) while the same violation key still
    /// reproduces, within the configured budget.
    fn minimize(
        &self,
        program: &Program,
        entries: &[EntrySpec],
        sensitivity: &Sensitivity,
        key: &str,
        kind: &ViolationKind,
    ) -> Option<Reproducer> {
        let reproduces = |p: &Program| -> bool {
            let map = Arc::new(AbstractionMap::build(p));
            let (facts, _, _) = trace_entries(p, entries, &map, self.config.max_steps);
            let ccount_program = ivy_ccount::analyze(p);
            let ccount_by_fn = ivy_ccount::analyze_by_function(p);
            let model = build_static_model(p, *sensitivity, &ccount_program, &ccount_by_fn);
            let (violations, _) = check::check_subsumption(p, &map, &facts, &model);
            violations.iter().any(|v| v.key == key && v.kind == *kind)
        };
        if !reproduces(program) {
            return None;
        }
        let entry_names: Vec<&str> = entries.iter().map(|e| e.entry.as_str()).collect();
        let mut current = program.clone();
        let mut budget = self.config.minimize_budget;
        let mut progress = true;
        while progress && budget > 0 {
            progress = false;
            let names: Vec<String> = current
                .functions
                .iter()
                .filter(|f| f.body.is_some() && !entry_names.contains(&f.name.as_str()))
                .map(|f| f.name.clone())
                .collect();
            for name in names {
                if budget == 0 {
                    break;
                }
                budget -= 1;
                let mut candidate = current.clone();
                candidate.functions.retain(|f| f.name != name);
                if reproduces(&candidate) {
                    current = candidate;
                    progress = true;
                }
            }
        }
        Some(Reproducer {
            source: pretty_program(&current),
            entries: entries.to_vec(),
        })
    }
}

/// Runs the entries as one kernel session: consecutive entries share a VM
/// (later phases see the state earlier ones set up, like boot followed by
/// light use), with one tracer whose facts are harvested at the end. A
/// trap wedges machine state (locks, interrupt depth), so the session
/// resumes on a fresh VM for the next entry; the partial trace up to the
/// trap still counts.
fn trace_entries(
    program: &Program,
    entries: &[EntrySpec],
    map: &Arc<AbstractionMap>,
    max_steps: u64,
) -> (DynFacts, usize, usize) {
    let mut facts = DynFacts::default();
    let mut entries_run = 0usize;
    let mut traps = 0usize;
    let config = VmConfig {
        ccount: true,
        max_steps,
        // Minimization can wire forged function pointers into accidental
        // self-recursion; keep KC frames shallow enough for test-thread
        // stacks (each KC frame costs several host frames).
        max_call_depth: 48,
        ..VmConfig::baseline()
    };
    let mut vm: Option<Vm> = None;
    let mut shared: Option<std::rc::Rc<std::cell::RefCell<OracleTracer>>> = None;
    let harvest = |vm: &mut Option<Vm>,
                   shared: &mut Option<std::rc::Rc<std::cell::RefCell<OracleTracer>>>,
                   facts: &mut DynFacts| {
        if let Some(mut vm) = vm.take() {
            drop(vm.take_tracer());
        }
        if let Some(shared) = shared.take() {
            let tracer = std::rc::Rc::try_unwrap(shared)
                .ok()
                .expect("VM released its tracer handle")
                .into_inner();
            facts.merge(tracer.into_facts());
        }
    };
    for spec in entries {
        if vm.is_none() {
            let Ok(mut fresh) = Vm::new(program.clone(), config) else {
                continue;
            };
            let tracer =
                std::rc::Rc::new(std::cell::RefCell::new(OracleTracer::new(Arc::clone(map))));
            fresh.attach_tracer(Box::new(dynfacts::SharedOracleTracer(std::rc::Rc::clone(
                &tracer,
            ))));
            vm = Some(fresh);
            shared = Some(tracer);
        }
        entries_run += 1;
        let args: Vec<Value> = spec.args.iter().map(|a| Value::Int(*a)).collect();
        let running = vm.as_mut().expect("constructed above");
        if running.run(&spec.entry, args).is_err() {
            traps += 1;
            // Wedged atomic state would fabricate blocking facts the
            // static analysis rightly knows nothing about; restart.
            harvest(&mut vm, &mut shared, &mut facts);
        }
    }
    harvest(&mut vm, &mut shared, &mut facts);
    (facts, entries_run, traps)
}

/// Builds the static side of the comparison at one sensitivity.
fn build_static_model(
    program: &Program,
    sensitivity: Sensitivity,
    ccount_program: &ivy_ccount::InstrumentationReport,
    ccount_by_fn: &BTreeMap<String, ivy_ccount::InstrumentationReport>,
) -> StaticModel {
    // Solve with derivation tracing on: when a dynamic fact escapes the
    // static answer, the violation report prints the derivation the static
    // side *did* have (or states which seed constraint is missing), which
    // is where diagnosing an unsoundness starts.
    let pts = pointsto::analyze_with(
        program,
        sensitivity,
        pointsto::SolveOptions::default().with_provenance(true),
    );
    let blockstop = BlockStop::with_config(ivy_blockstop::BlockStopConfig {
        sensitivity,
        ..Default::default()
    })
    .analyze_with(program, &pts);
    StaticModel {
        sensitivity,
        pts,
        blockstop,
        ccount_program: ccount_program.clone(),
        ccount_by_fn: ccount_by_fn.clone(),
    }
}
