//! The BlockStop whole-program analysis (§2.3 of the paper).
//!
//! BlockStop enforces that "the kernel does not call any functions that may
//! block while interrupts are disabled, such as while holding a spinlock or
//! handling an interrupt". The pipeline is exactly the paper's:
//!
//! 1. seed the `blocking` set from annotations (`#[blocking]`,
//!    `#[blocking_if(flags)]` for allocators) and the known sleeping
//!    primitives;
//! 2. collect every call site, resolving function-pointer calls with the
//!    points-to analysis from `ivy-analysis`; the sites' targets are the
//!    call graph;
//! 3. propagate "may block" backwards through the call sites;
//! 4. determine which call sites execute in atomic context (interrupt
//!    handlers, IRQ-disabled regions, spinlock-held regions), including
//!    functions reached transitively from such sites;
//! 5. report every atomic call site whose possible targets may block.
//!
//! False positives are silenced with run-time assertions
//! ([`insert_asserts`]): a function listed in
//! [`BlockStopConfig::asserted_functions`] gets an `__assert_may_block`
//! check at entry, and the static analysis then treats entry into it as
//! guarded (it no longer propagates "may block" to its callers and findings
//! against it are suppressed).

use ivy_analysis::pointsto::{self, Sensitivity};
use ivy_cmir::ast::{Block, Check, Expr, Function, Program, Stmt};
use ivy_cmir::pretty::expr_str;
use ivy_cmir::visit;
use ivy_cmir::Span;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};

/// The GFP flag bit that allows an allocation to sleep. Must match
/// `ivy_vm::GFP_WAIT` (the VM's kernel ABI).
pub const GFP_WAIT: i64 = 0x10;

/// Sleeping primitives that seed the blocking set even without annotations
/// (they are VM builtins, so they carry no KC attributes).
pub const BUILTIN_BLOCKING: &[&str] = &[
    "copy_to_user",
    "copy_from_user",
    "schedule",
    "cond_resched",
    "wait_for_completion",
    "mutex_lock",
    "down",
    "msleep",
    "schedule_timeout",
    "vmalloc",
];

/// Builtins that allocate and may sleep depending on their GFP flags.
pub const BUILTIN_BLOCKING_IF_FLAGS: &[&str] = &[
    "kmalloc",
    "kzalloc",
    "kmem_cache_alloc",
    "__get_free_page",
    "alloc_page",
];

/// Builtins that begin an IRQ-disabled or spinlocked region.
pub const ATOMIC_ENTER: &[&str] = &[
    "local_irq_disable",
    "local_irq_save",
    "spin_lock_irqsave",
    "spin_lock_irq",
    "spin_lock",
    "spin_lock_bh",
];

/// Builtins that end an IRQ-disabled or spinlocked region.
pub const ATOMIC_EXIT: &[&str] = &[
    "local_irq_enable",
    "local_irq_restore",
    "spin_unlock_irqrestore",
    "spin_unlock_irq",
    "spin_unlock",
    "spin_unlock_bh",
];

/// Configuration for a BlockStop run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockStopConfig {
    /// Points-to precision used to resolve function-pointer calls.
    pub sensitivity: Sensitivity,
    /// Functions whose entry is guarded by a run-time assertion; findings
    /// against them are silenced (the paper's 15 manual run-time checks).
    pub asserted_functions: BTreeSet<String>,
}

/// A call site that BlockStop flags.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Finding {
    /// The function making the call (in atomic context).
    pub caller: String,
    /// The callee expression as written (a name, or `ops->read`).
    pub callee_text: String,
    /// The possible targets that may block.
    pub blocking_targets: BTreeSet<String>,
    /// Why the caller is considered atomic here.
    pub reason: AtomicReason,
    /// One call chain from a blocking target down to a blocking seed,
    /// for diagnosis (innermost last).
    pub example_chain: Vec<String>,
    /// Span of the statement containing the flagged call (synthetic when
    /// the program was built programmatically rather than parsed).
    pub span: Span,
}

/// Why a call site is considered to execute in atomic context.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AtomicReason {
    /// The enclosing function is an interrupt handler.
    InterruptHandler,
    /// The enclosing function is annotated as disabling interrupts.
    DisablesIrq,
    /// The call appears between an IRQ-disable/spinlock acquire and the
    /// matching release inside the function body.
    InsideAtomicRegion,
    /// The enclosing function is reachable from an atomic call site in some
    /// caller.
    CalledFromAtomic,
}

impl AtomicReason {
    /// Stable name used by the persisted report encoding.
    pub fn name(self) -> &'static str {
        match self {
            AtomicReason::InterruptHandler => "interrupt-handler",
            AtomicReason::DisablesIrq => "disables-irq",
            AtomicReason::InsideAtomicRegion => "inside-atomic-region",
            AtomicReason::CalledFromAtomic => "called-from-atomic",
        }
    }

    /// Parses the stable name back (inverse of [`AtomicReason::name`]).
    pub fn from_name(name: &str) -> Option<AtomicReason> {
        match name {
            "interrupt-handler" => Some(AtomicReason::InterruptHandler),
            "disables-irq" => Some(AtomicReason::DisablesIrq),
            "inside-atomic-region" => Some(AtomicReason::InsideAtomicRegion),
            "called-from-atomic" => Some(AtomicReason::CalledFromAtomic),
            _ => None,
        }
    }
}

/// The result of a BlockStop analysis.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BlockStopReport {
    /// Functions that may (transitively) block. These are the annotations the
    /// tool "emits for each function that might eventually call a blocking
    /// function".
    pub may_block: BTreeSet<String>,
    /// The blocking seeds (directly blocking functions).
    pub seeds: BTreeSet<String>,
    /// Functions whose bodies may execute in atomic context.
    pub atomic_functions: BTreeSet<String>,
    /// Flagged call sites.
    pub findings: Vec<Finding>,
    /// Findings suppressed because the callee is guarded by a run-time
    /// assertion.
    pub suppressed_by_assert: u64,
}

impl BlockStopReport {
    /// Findings grouped by caller (for report printing).
    pub fn findings_by_caller(&self) -> BTreeMap<String, Vec<&Finding>> {
        let mut map: BTreeMap<String, Vec<&Finding>> = BTreeMap::new();
        for f in &self.findings {
            map.entry(f.caller.clone()).or_default().push(f);
        }
        map
    }

    /// True when a run-time blocking-in-atomic event — `caller` invoked
    /// the blocking `callee` with interrupts disabled or a lock held — is
    /// covered by some finding of this report. The dynamic soundness
    /// oracle checks every VM-observed violation through this predicate;
    /// an uncovered event is a soundness violation of the analysis.
    pub fn covers_runtime_violation(&self, caller: &str, callee: &str) -> bool {
        self.findings.iter().any(|f| {
            f.caller == caller && (f.blocking_targets.contains(callee) || f.callee_text == callee)
        })
    }
}

/// The BlockStop tool.
#[derive(Debug, Clone, Default)]
pub struct BlockStop {
    /// Configuration.
    pub config: BlockStopConfig,
}

/// One call site with evaluated information about its arguments.
#[derive(Debug, Clone)]
struct Site {
    caller: String,
    callee_text: String,
    targets: BTreeSet<String>,
    /// True when the targets are call-graph edges: always for a call
    /// through a pointer, and for a direct call when the program defines
    /// or declares the name (not for a builtin or undeclared external).
    in_call_graph: bool,
    /// True if this site itself is a direct call to a conditional allocator
    /// with flags that may sleep.
    waits_for_memory: bool,
    /// True if the site sits inside an IRQ-disabled / spinlocked region of
    /// the caller's body.
    in_atomic_region: bool,
    /// Span of the statement containing the call.
    span: Span,
}

impl BlockStop {
    /// Creates a BlockStop instance with default configuration.
    pub fn new() -> Self {
        BlockStop::default()
    }

    /// Creates a BlockStop instance with the given configuration.
    pub fn with_config(config: BlockStopConfig) -> Self {
        BlockStop { config }
    }

    /// Runs the whole-program analysis, computing its own points-to
    /// results. When several tools run together, prefer
    /// [`BlockStop::analyze_with`] over a shared `ivy_engine::AnalysisCtx`
    /// so points-to is solved once.
    pub fn analyze(&self, program: &Program) -> BlockStopReport {
        let pts = pointsto::analyze(program, self.config.sensitivity);
        self.analyze_with(program, &pts)
    }

    /// Runs the whole-program analysis over precomputed points-to results
    /// (which must match [`BlockStopConfig::sensitivity`]).
    pub fn analyze_with(
        &self,
        program: &Program,
        pts: &ivy_analysis::PointsToResult,
    ) -> BlockStopReport {
        let mut report = BlockStopReport::default();

        // 1. Seeds.
        let mut seeds: BTreeSet<String> = BUILTIN_BLOCKING.iter().map(|s| s.to_string()).collect();
        for f in &program.functions {
            if f.attrs.blocking {
                seeds.insert(f.name.clone());
            }
        }
        report.seeds = seeds.clone();

        // 2. Enumerate call sites with their atomic-region and GFP context.
        //    Their targets are the call graph: every target of a call
        //    through a pointer, and the name of a direct call when the
        //    program defines or declares it.
        let sites = self.collect_sites(program, pts);
        let mut callees: Callees = BTreeMap::new();
        for site in sites.iter().filter(|site| site.in_call_graph) {
            let edges = callees.entry(site.caller.as_str()).or_default();
            edges.extend(site.targets.iter().map(String::as_str));
        }

        // 3. may_block: backwards propagation. Asserted functions do not
        //    propagate blocking to their callers (their entry is guarded).
        let mut may_block = seeds.clone();
        loop {
            let mut changed = false;
            for site in &sites {
                if may_block.contains(&site.caller) {
                    continue;
                }
                let transitively = site
                    .targets
                    .iter()
                    .any(|t| may_block.contains(t) && !self.config.asserted_functions.contains(t));
                if transitively || site.waits_for_memory {
                    may_block.insert(site.caller.clone());
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        report.may_block = may_block.clone();

        // 4. Atomic context: directly-atomic functions, then forward
        //    propagation to everything reachable from an atomic call site.
        let mut atomic: BTreeMap<String, AtomicReason> = BTreeMap::new();
        for f in program.functions.iter().filter(|f| f.body.is_some()) {
            if f.attrs.interrupt_handler {
                atomic.insert(f.name.clone(), AtomicReason::InterruptHandler);
            } else if f.attrs.disables_irq {
                atomic.insert(f.name.clone(), AtomicReason::DisablesIrq);
            }
        }
        let mut queue: VecDeque<String> = atomic.keys().cloned().collect();
        // Also: targets of calls made inside atomic regions become atomic —
        // except functions whose entry is guarded by a run-time assertion
        // (the assertion guarantees they are never actually entered in atomic
        // context, which is how it silences the false positive).
        for site in &sites {
            if site.in_atomic_region {
                for t in &site.targets {
                    if program
                        .function(t)
                        .map(|f| f.body.is_some())
                        .unwrap_or(false)
                        && !atomic.contains_key(t)
                        && !self.config.asserted_functions.contains(t)
                    {
                        atomic.insert(t.clone(), AtomicReason::CalledFromAtomic);
                        queue.push_back(t.clone());
                    }
                }
            }
        }
        while let Some(f) = queue.pop_front() {
            for &callee in callees.get(f.as_str()).into_iter().flatten() {
                if program
                    .function(callee)
                    .map(|g| g.body.is_some())
                    .unwrap_or(false)
                    && !atomic.contains_key(callee)
                    && !self.config.asserted_functions.contains(callee)
                {
                    atomic.insert(callee.to_string(), AtomicReason::CalledFromAtomic);
                    queue.push_back(callee.to_string());
                }
            }
        }
        report.atomic_functions = atomic.keys().cloned().collect();

        // 5. Findings: atomic call sites whose targets may block.
        for site in &sites {
            let caller_atomic = atomic.get(&site.caller).copied();
            let site_atomic = site.in_atomic_region || caller_atomic.is_some();
            if !site_atomic {
                continue;
            }
            let mut blocking_targets: BTreeSet<String> = site
                .targets
                .iter()
                .filter(|t| may_block.contains(*t) || seeds.contains(*t))
                .cloned()
                .collect();
            if site.waits_for_memory {
                blocking_targets.insert(site.callee_text.clone());
            }
            if blocking_targets.is_empty() {
                continue;
            }
            let suppressed: BTreeSet<String> = blocking_targets
                .iter()
                .filter(|t| self.config.asserted_functions.contains(*t))
                .cloned()
                .collect();
            if suppressed.len() == blocking_targets.len() {
                report.suppressed_by_assert += 1;
                continue;
            }
            for s in suppressed {
                blocking_targets.remove(&s);
                report.suppressed_by_assert += 1;
            }
            let reason = if site.in_atomic_region {
                AtomicReason::InsideAtomicRegion
            } else {
                caller_atomic.unwrap_or(AtomicReason::InsideAtomicRegion)
            };
            let example_chain = blocking_chain(
                blocking_targets.iter().next().expect("non-empty"),
                &callees,
                &seeds,
            );
            report.findings.push(Finding {
                caller: site.caller.clone(),
                callee_text: site.callee_text.clone(),
                blocking_targets,
                reason,
                example_chain,
                span: site.span,
            });
        }
        report
    }

    /// Collects every call site with context: resolved targets, whether the
    /// site sits in an IRQ-disabled/spinlocked region, and whether it is a
    /// conditional allocator called with flags that may sleep.
    fn collect_sites(&self, program: &Program, pts: &ivy_analysis::PointsToResult) -> Vec<Site> {
        let mut out = Vec::new();
        let globals: HashSet<&str> = program
            .globals
            .iter()
            .map(|g| g.decl.name.as_str())
            .collect();
        for func in program.functions.iter().filter(|f| f.body.is_some()) {
            let body = func.body.as_ref().expect("filtered");
            let mut vars: Vec<&str> = func.params.iter().map(|p| p.name.as_str()).collect();
            visit::walk_fn_stmts(func, &mut |stmt| {
                if let Stmt::Local(decl, _) = stmt {
                    vars.push(&decl.name);
                }
            });
            let caller = Caller {
                program,
                pts,
                func,
                vars,
                globals: &globals,
            };
            let mut depth: u32 = if func.attrs.disables_irq { 1 } else { 0 };
            caller.collect_sites_in_block(body, &mut depth, &mut out);
        }
        out
    }
}

/// One function whose call sites are being collected.
struct Caller<'a> {
    program: &'a Program,
    pts: &'a ivy_analysis::PointsToResult,
    func: &'a Function,
    /// The function's parameter and local names.
    vars: Vec<&'a str>,
    /// The program's global names.
    globals: &'a HashSet<&'a str>,
}

impl Caller<'_> {
    fn collect_sites_in_block(&self, block: &Block, depth: &mut u32, out: &mut Vec<Site>) {
        for stmt in &block.stmts {
            // The statement's span localizes every call inside it — KC
            // expressions carry no spans of their own, so the enclosing
            // statement is the finest line-accurate anchor available.
            let span = stmt.span();
            match stmt {
                Stmt::If(c, t, e, _) => {
                    self.collect_sites_in_expr(c, *depth, span, out);
                    let mut d_then = *depth;
                    self.collect_sites_in_block(t, &mut d_then, out);
                    let mut d_else = *depth;
                    if let Some(e) = e {
                        self.collect_sites_in_block(e, &mut d_else, out);
                    }
                    // Sound join: after the branch, the code may run holding
                    // whatever either path acquired.
                    *depth = d_then.max(d_else);
                }
                Stmt::While(c, b, _) => {
                    self.collect_sites_in_expr(c, *depth, span, out);
                    let mut d_body = *depth;
                    self.collect_sites_in_block(b, &mut d_body, out);
                    // The loop may run zero times or leave a lock held.
                    *depth = (*depth).max(d_body);
                }
                Stmt::Block(b) | Stmt::DelayedFreeScope(b, _) => {
                    self.collect_sites_in_block(b, depth, out)
                }
                Stmt::Check(Check::AssertMayBlock { .. }, _) => {}
                other => {
                    // Track atomic region transitions from the calls in this
                    // statement, in order.
                    let mut exprs: Vec<&Expr> = Vec::new();
                    visit::walk_stmt_exprs(other, &mut |e| exprs.push(e));
                    for e in exprs {
                        if let Expr::Call(callee, _) = e {
                            if let Expr::Var(name) = &**callee {
                                if ATOMIC_ENTER.contains(&name.as_str()) {
                                    self.collect_sites_in_expr(e, *depth, span, out);
                                    *depth += 1;
                                    continue;
                                }
                                if ATOMIC_EXIT.contains(&name.as_str()) {
                                    *depth = depth.saturating_sub(1);
                                    self.collect_sites_in_expr(e, *depth, span, out);
                                    continue;
                                }
                            }
                            self.collect_one_site(e, *depth, span, out);
                        }
                    }
                }
            }
        }
    }

    fn collect_sites_in_expr(&self, e: &Expr, depth: u32, span: Span, out: &mut Vec<Site>) {
        visit::walk_expr(e, &mut |sub| {
            if matches!(sub, Expr::Call(..)) {
                self.collect_one_site(sub, depth, span, out);
            }
        });
    }

    fn collect_one_site(&self, call: &Expr, depth: u32, span: Span, out: &mut Vec<Site>) {
        let Expr::Call(callee, args) = call else {
            return;
        };
        let (targets, callee_text, in_call_graph, waits) = match &**callee {
            // A bare name that is not one of the caller's variables is a
            // direct call, whether to a defined function, a builtin, or an
            // undeclared external.
            Expr::Var(name)
                if !self.vars.contains(&name.as_str()) && !self.globals.contains(name.as_str()) =>
            {
                let declared = self.program.function(name);
                let waits = waits_for_memory(declared, name, args);
                let targets = BTreeSet::from([name.clone()]);
                (targets, name.clone(), declared.is_some(), waits)
            }
            // A function pointer, named by a variable or reached through
            // an expression: its targets come from points-to.
            other => {
                let text = expr_str(other);
                let targets = self.pts.indirect_call_targets(&self.func.name, &text);
                (targets, text, true, false)
            }
        };
        out.push(Site {
            caller: self.func.name.clone(),
            callee_text,
            targets,
            in_call_graph,
            waits_for_memory: waits,
            in_atomic_region: depth > 0,
            span,
        });
    }
}

/// True if this call to `name` (`declared`, when the program defines or
/// declares it) is to a conditional allocator with flags that allow
/// sleeping (either a non-constant flags argument, or a constant containing
/// `GFP_WAIT`).
fn waits_for_memory(declared: Option<&Function>, name: &str, args: &[Expr]) -> bool {
    let flag_param_idx = if BUILTIN_BLOCKING_IF_FLAGS.contains(&name) {
        Some(1)
    } else {
        declared.and_then(|f| {
            f.attrs
                .blocking_if_flag
                .as_ref()
                .and_then(|flag| f.params.iter().position(|p| &p.name == flag))
        })
    };
    let Some(idx) = flag_param_idx else {
        return false;
    };
    match args.get(idx) {
        Some(Expr::Int(v)) => v & GFP_WAIT != 0,
        Some(_) => true, // unknown flags: conservatively may sleep
        None => false,
    }
}

/// Caller name → the names its call sites may reach.
type Callees<'a> = BTreeMap<&'a str, BTreeSet<&'a str>>;

/// A call chain from `from` down to a blocking seed, for diagnostics.
fn blocking_chain<'a>(
    from: &'a str,
    callees: &Callees<'a>,
    seeds: &BTreeSet<String>,
) -> Vec<String> {
    // BFS towards a seed.
    let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
    let mut queue = VecDeque::from([from]);
    let mut seen = BTreeSet::from([from]);
    while let Some(f) = queue.pop_front() {
        if seeds.contains(f) {
            let mut chain = vec![f.to_string()];
            let mut cur = f;
            while let Some(&p) = prev.get(cur) {
                chain.push(p.to_string());
                cur = p;
            }
            chain.reverse();
            return chain;
        }
        for &callee in callees.get(f).into_iter().flatten() {
            if seen.insert(callee) {
                prev.insert(callee, f);
                queue.push_back(callee);
            }
        }
    }
    vec![from.to_string()]
}

/// Inserts an `__assert_may_block` run-time check at the entry of each named
/// function, returning the patched program and the number of checks added.
pub fn insert_asserts(program: &Program, functions: &BTreeSet<String>) -> (Program, u64) {
    let mut out = program.clone();
    let mut added = 0;
    for name in functions {
        let Some(func) = out.function_mut(name) else {
            continue;
        };
        let Some(body) = func.body.as_mut() else {
            continue;
        };
        let already = matches!(
            body.stmts.first(),
            Some(Stmt::Check(Check::AssertMayBlock { .. }, _))
        );
        if already {
            continue;
        }
        body.stmts.insert(
            0,
            Stmt::Check(
                Check::AssertMayBlock { site: name.clone() },
                Span::synthetic(),
            ),
        );
        added += 1;
    }
    (out, added)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivy_cmir::parser::parse_program;

    /// A miniature tty/console subsystem reproducing the paper's
    /// `flush_to_ldisc` / `read_chan` false-positive situation, plus one real
    /// bug (GFP_WAIT allocation under a spinlock) and one indirect-call bug.
    const TTY: &str = r#"
        #[allocator] #[blocking_if(flags)]
        extern fn kmalloc(size: u32, flags: u32) -> void *;
        extern fn spin_lock_irqsave(l: u32 *);
        extern fn spin_unlock_irqrestore(l: u32 *);
        #[blocking]
        extern fn wait_for_completion(x: u32 *);

        global tty_lock: u32 = 0;
        global done: u32 = 0;

        struct ldisc_ops { receive: fnptr() -> void; }
        global n_tty_ops: struct ldisc_ops;

        fn read_chan() {
            wait_for_completion(&done);
        }

        fn echo_char() { }

        fn register_ldisc() {
            n_tty_ops.receive = read_chan;
        }

        // FALSE POSITIVE path: the points-to set of `receive` includes
        // read_chan, but this handler is only ever installed for echo paths.
        #[irq_handler]
        fn tty_interrupt() {
            n_tty_ops.receive();
        }

        // REAL BUG 1: sleeping allocation while holding a spinlock with IRQs
        // off.
        fn queue_packet(len: u32) -> void * {
            spin_lock_irqsave(&tty_lock);
            let buf: void * = kmalloc(len, 0x10);
            spin_unlock_irqrestore(&tty_lock);
            return buf;
        }

        // REAL BUG 2: direct call chain to a sleeping primitive from an
        // interrupt handler.
        #[irq_handler]
        fn timer_tick() {
            flush_queue();
        }
        fn flush_queue() {
            read_chan();
        }

        // Fine: atomic allocation under the lock.
        fn queue_packet_atomic(len: u32) -> void * {
            spin_lock_irqsave(&tty_lock);
            let buf: void * = kmalloc(len, 0);
            spin_unlock_irqrestore(&tty_lock);
            return buf;
        }
    "#;

    #[test]
    fn may_block_set_is_sound() {
        let p = parse_program(TTY).unwrap();
        let r = BlockStop::new().analyze(&p);
        assert!(r.may_block.contains("read_chan"));
        assert!(r.may_block.contains("flush_queue"));
        assert!(
            r.may_block.contains("queue_packet"),
            "GFP_WAIT allocation may sleep"
        );
        assert!(!r.may_block.contains("echo_char"));
        assert!(!r.may_block.contains("queue_packet_atomic"));
    }

    #[test]
    fn finds_real_bugs_and_false_positive() {
        let p = parse_program(TTY).unwrap();
        let r = BlockStop::new().analyze(&p);
        let callers: BTreeSet<String> = r.findings.iter().map(|f| f.caller.clone()).collect();
        assert!(
            callers.contains("queue_packet"),
            "findings: {:?}",
            r.findings
        );
        assert!(callers.contains("timer_tick") || callers.contains("flush_queue"));
        assert!(
            callers.contains("tty_interrupt"),
            "the conservative points-to analysis should flag the indirect call"
        );
        // No findings against the benign paths.
        assert!(!callers.contains("queue_packet_atomic"));
        assert!(!callers.contains("echo_char"));
    }

    /// A lock taken inside an `if` or `while` body may still be held after
    /// it; a lock released on the same path is not.
    #[test]
    fn lock_depth_survives_branch_and_loop_bodies() {
        let p = parse_program(
            r#"
            #[allocator] #[blocking_if(flags)]
            extern fn kmalloc(size: u32, flags: u32) -> void *;
            extern fn spin_lock_irqsave(l: u32 *);
            extern fn spin_unlock_irqrestore(l: u32 *);
            global lk: u32 = 0;
            fn locked_in_if(c: u32, len: u32) -> void * {
                if (c) { spin_lock_irqsave(&lk); }
                let buf: void * = kmalloc(len, 0x10);
                return buf;
            }
            fn locked_in_while(c: u32, len: u32) -> void * {
                while (c) { spin_lock_irqsave(&lk); c = 0; }
                let buf: void * = kmalloc(len, 0x10);
                return buf;
            }
            fn balanced_in_if(c: u32, len: u32) -> void * {
                if (c) { spin_lock_irqsave(&lk); spin_unlock_irqrestore(&lk); }
                let buf: void * = kmalloc(len, 0x10);
                return buf;
            }
            "#,
        )
        .unwrap();
        let r = BlockStop::new().analyze(&p);
        let callers: BTreeSet<&str> = r.findings.iter().map(|f| f.caller.as_str()).collect();
        assert_eq!(
            callers,
            BTreeSet::from(["locked_in_if", "locked_in_while"]),
            "{:?}",
            r.findings
        );
    }

    /// A call through a function pointer named by a bare variable — a
    /// global or a parameter — resolves through points-to, like a call
    /// through a struct field.
    #[test]
    fn bare_function_pointer_calls_resolve_through_pointsto() {
        let p = parse_program(
            r#"
            #[blocking]
            extern fn msleep(ms: u32);
            global hook: fnptr() -> void;
            fn slow() { msleep(10); }
            fn install() { hook = slow; }
            #[irq_handler]
            fn tick() { hook(); }
            fn call(cb: fnptr() -> void) { cb(); }
            #[irq_handler]
            fn tock() { call(slow); }
            "#,
        )
        .unwrap();
        let r = BlockStop::new().analyze(&p);
        for (caller, pointer) in [("tick", "hook"), ("call", "cb")] {
            let finding = r
                .findings
                .iter()
                .find(|f| f.caller == caller && f.callee_text == pointer)
                .unwrap_or_else(|| panic!("{caller}: {pointer}() is missed: {:?}", r.findings));
            assert_eq!(
                finding.blocking_targets,
                BTreeSet::from(["slow".to_string()])
            );
        }
        for f in ["slow", "tick", "call", "tock"] {
            assert!(r.may_block.contains(f), "{f} may block: {:?}", r.may_block);
        }
    }

    #[test]
    fn atomic_context_propagates_through_calls() {
        let p = parse_program(TTY).unwrap();
        let r = BlockStop::new().analyze(&p);
        assert!(r.atomic_functions.contains("tty_interrupt"));
        assert!(r.atomic_functions.contains("timer_tick"));
        assert!(
            r.atomic_functions.contains("flush_queue"),
            "called from an interrupt handler: {:?}",
            r.atomic_functions
        );
    }

    #[test]
    fn runtime_asserts_silence_false_positives() {
        let p = parse_program(TTY).unwrap();
        let mut config = BlockStopConfig::default();
        config.asserted_functions.insert("read_chan".to_string());
        let r = BlockStop::with_config(config).analyze(&p);
        let callers: BTreeSet<String> = r.findings.iter().map(|f| f.caller.clone()).collect();
        assert!(
            !callers.contains("tty_interrupt"),
            "assert on read_chan silences the indirect-call false positive: {:?}",
            r.findings
        );
        // The genuine GFP_WAIT bug is still reported.
        assert!(callers.contains("queue_packet"));
        assert!(r.suppressed_by_assert >= 1);
    }

    #[test]
    fn insert_asserts_adds_entry_checks_once() {
        let p = parse_program(TTY).unwrap();
        let set = BTreeSet::from(["read_chan".to_string(), "missing_fn".to_string()]);
        let (patched, added) = insert_asserts(&p, &set);
        assert_eq!(added, 1);
        let f = patched.function("read_chan").unwrap();
        assert!(matches!(
            f.body.as_ref().unwrap().stmts[0],
            Stmt::Check(Check::AssertMayBlock { .. }, _)
        ));
        // Idempotent.
        let (patched2, added2) = insert_asserts(&patched, &set);
        assert_eq!(added2, 0);
        assert_eq!(
            patched2
                .function("read_chan")
                .unwrap()
                .body
                .as_ref()
                .unwrap()
                .stmts
                .len(),
            f.body.as_ref().unwrap().stmts.len()
        );
    }

    #[test]
    fn example_chain_reaches_a_seed() {
        let p = parse_program(TTY).unwrap();
        let r = BlockStop::new().analyze(&p);
        let finding = r
            .findings
            .iter()
            .find(|f| f.caller == "timer_tick" || f.caller == "flush_queue")
            .expect("real bug 2 must be found");
        let last = finding.example_chain.last().unwrap();
        assert!(r.seeds.contains(last), "chain {:?}", finding.example_chain);
    }

    #[test]
    fn findings_carry_call_site_spans() {
        let p = parse_program(TTY).unwrap();
        let r = BlockStop::new().analyze(&p);
        let f = r
            .findings
            .iter()
            .find(|f| f.caller == "queue_packet")
            .expect("GFP_WAIT bug is found");
        assert!(f.span.is_real(), "parsed programs yield real spans");
        let expected_line = TTY
            .lines()
            .position(|l| l.contains("kmalloc(len, 0x10)"))
            .expect("source contains the bug") as u32
            + 1;
        assert_eq!(
            f.span.start.line, expected_line,
            "the finding points at the allocating statement, not the function"
        );
    }

    #[test]
    fn report_groups_by_caller() {
        let p = parse_program(TTY).unwrap();
        let r = BlockStop::new().analyze(&p);
        let grouped = r.findings_by_caller();
        assert!(grouped.values().all(|v| !v.is_empty()));
        assert_eq!(
            grouped.values().map(|v| v.len()).sum::<usize>(),
            r.findings.len()
        );
    }
}
