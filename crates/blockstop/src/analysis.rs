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
//! 3. propagate "may block" backwards through the call sites (a worklist
//!    over the reverse edges);
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
//!
//! The analysis reads no function body itself: step 2 folds over each
//! function's [`FnFacts`] (its call sites with their lock depth, collected
//! in one walk), which the engine memoizes per function, so re-analyzing
//! an edited program walks only the edited bodies.

use ivy_analysis::pointsto::{self, Sensitivity};
use ivy_cmir::ast::{Check, Function, Program, Stmt};
use ivy_cmir::facts::{Callee, FnFacts};
use ivy_cmir::Span;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

pub use ivy_cmir::facts::{ATOMIC_ENTER, ATOMIC_EXIT};

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

/// Dense numbers for every name the analysis meets: a program function's
/// name is its first definition's position, any other name (a builtin, an
/// undeclared external, a blocking seed) gets the next free number.
struct Names<'a> {
    program: &'a Program,
    others: HashMap<&'a str, u32>,
    other_names: Vec<&'a str>,
}

impl<'a> Names<'a> {
    fn new(program: &'a Program) -> Names<'a> {
        Names {
            program,
            others: HashMap::new(),
            other_names: Vec::new(),
        }
    }

    /// The number of `name`, numbering it if it has none yet.
    fn id(&mut self, name: &'a str) -> u32 {
        if let Some(i) = self.program.functions.position(name) {
            return i as u32;
        }
        let next = (self.program.functions.len() + self.other_names.len()) as u32;
        *self.others.entry(name).or_insert_with(|| {
            self.other_names.push(name);
            next
        })
    }

    /// The number of `name`, if it has one.
    fn get(&self, name: &str) -> Option<u32> {
        match self.program.functions.position(name) {
            Some(i) => Some(i as u32),
            None => self.others.get(name).copied(),
        }
    }

    fn name(&self, id: u32) -> &'a str {
        let functions = &self.program.functions;
        match (id as usize).checked_sub(functions.len()) {
            None => &functions[id as usize].name,
            Some(other) => self.other_names[other],
        }
    }

    fn len(&self) -> usize {
        self.program.functions.len() + self.other_names.len()
    }

    /// The program defines (not only declares) the function `id` names.
    fn defined(&self, id: u32) -> bool {
        let functions = &self.program.functions;
        (id as usize) < functions.len() && functions[id as usize].body.is_some()
    }
}

/// One call site with its callee resolved, borrowing the facts it was
/// read from; its targets are `targets[site.targets]` of [`sites`].
struct Site<'a> {
    caller: u32,
    callee_text: &'a str,
    targets: std::ops::Range<usize>,
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
        self.analyze_facts(program, &FnFacts::all(program), pts)
    }

    /// Runs the whole-program analysis as a fold over every function's
    /// facts (`facts[i]` are [`FnFacts::of`] `program.functions[i]`, or of
    /// a function with the same content and layout) and precomputed
    /// points-to results. Reads no function body.
    pub fn analyze_facts(
        &self,
        program: &Program,
        facts: &[Arc<FnFacts>],
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

        // 2. Every call site with its atomic-region and GFP context. The
        //    sites' targets are the call graph: every target of a call
        //    through a pointer, and the name of a direct call when the
        //    program defines or declares it.
        let mut names = Names::new(program);
        let (sites, targets) = sites(&mut names, facts, pts);
        let seed_ids: Vec<u32> = seeds.iter().map(|s| names.id(s)).collect();
        let ids = names.len();
        let mut asserted = vec![false; ids];
        for name in &self.config.asserted_functions {
            if let Some(id) = names.get(name) {
                asserted[id as usize] = true;
            }
        }
        let mut callees: Vec<Vec<u32>> = vec![Vec::new(); ids];
        let mut callers: Vec<Vec<u32>> = vec![Vec::new(); ids];
        for site in &sites {
            let site_targets = &targets[site.targets.clone()];
            if site.in_call_graph {
                callees[site.caller as usize].extend(site_targets);
            }
            for &target in site_targets {
                callers[target as usize].push(site.caller);
            }
        }
        // Callees in name order: the order `blocking_chain` searches in.
        for list in &mut callees {
            list.sort_unstable_by_key(|&id| names.name(id));
            list.dedup();
        }

        // 3. may_block: backwards propagation over the reverse edges.
        //    Asserted functions do not propagate blocking to their callers
        //    (their entry is guarded).
        let mut may_block = vec![false; ids];
        let mut is_seed = vec![false; ids];
        let mut work = seed_ids.clone();
        for &seed in &seed_ids {
            may_block[seed as usize] = true;
            is_seed[seed as usize] = true;
        }
        for site in sites.iter().filter(|site| site.waits_for_memory) {
            if !std::mem::replace(&mut may_block[site.caller as usize], true) {
                work.push(site.caller);
            }
        }
        while let Some(blocking) = work.pop() {
            if asserted[blocking as usize] {
                continue;
            }
            for &caller in &callers[blocking as usize] {
                if !std::mem::replace(&mut may_block[caller as usize], true) {
                    work.push(caller);
                }
            }
        }

        // 4. Atomic context: directly-atomic functions, then forward
        //    propagation to everything reachable from an atomic call site.
        let mut atomic: Vec<Option<AtomicReason>> = vec![None; ids];
        for f in program.functions.iter().filter(|f| f.body.is_some()) {
            let id = names.id(&f.name) as usize;
            if f.attrs.interrupt_handler {
                atomic[id] = Some(AtomicReason::InterruptHandler);
            } else if f.attrs.disables_irq {
                atomic[id] = Some(AtomicReason::DisablesIrq);
            }
        }
        let mut queue: VecDeque<u32> = (0..ids as u32)
            .filter(|&id| atomic[id as usize].is_some())
            .collect();
        // A function reached from an atomic call site becomes atomic —
        // except functions whose entry is guarded by a run-time assertion
        // (the assertion guarantees they are never actually entered in atomic
        // context, which is how it silences the false positive).
        let reach = |id: u32, atomic: &mut Vec<Option<AtomicReason>>, queue: &mut VecDeque<u32>| {
            let slot = &mut atomic[id as usize];
            if names.defined(id) && slot.is_none() && !asserted[id as usize] {
                *slot = Some(AtomicReason::CalledFromAtomic);
                queue.push_back(id);
            }
        };
        for site in sites.iter().filter(|site| site.in_atomic_region) {
            for &t in &targets[site.targets.clone()] {
                reach(t, &mut atomic, &mut queue);
            }
        }
        while let Some(f) = queue.pop_front() {
            for &callee in &callees[f as usize] {
                reach(callee, &mut atomic, &mut queue);
            }
        }

        // 5. Findings: atomic call sites whose targets may block.
        for site in &sites {
            let caller_atomic = atomic[site.caller as usize];
            if !site.in_atomic_region && caller_atomic.is_none() {
                continue;
            }
            let mut blocking_targets: BTreeSet<String> = targets[site.targets.clone()]
                .iter()
                .filter(|&&t| may_block[t as usize])
                .map(|&t| names.name(t).to_string())
                .collect();
            if site.waits_for_memory {
                blocking_targets.insert(site.callee_text.to_string());
            }
            if blocking_targets.is_empty() {
                continue;
            }
            let suppressed = blocking_targets
                .iter()
                .filter(|t| self.config.asserted_functions.contains(*t))
                .count();
            if suppressed == blocking_targets.len() {
                report.suppressed_by_assert += 1;
                continue;
            }
            blocking_targets.retain(|t| !self.config.asserted_functions.contains(t));
            report.suppressed_by_assert += suppressed as u64;
            let reason = if site.in_atomic_region {
                AtomicReason::InsideAtomicRegion
            } else {
                caller_atomic.unwrap_or(AtomicReason::InsideAtomicRegion)
            };
            let first = blocking_targets.iter().next().expect("non-empty");
            let first = names.get(first).expect("a site's targets are numbered");
            let example_chain = blocking_chain(first, &names, &callees, &is_seed);
            report.findings.push(Finding {
                caller: names.name(site.caller).to_string(),
                callee_text: site.callee_text.to_string(),
                blocking_targets,
                reason,
                example_chain,
                span: site.span,
            });
        }
        let named = |set: &[bool]| -> BTreeSet<String> {
            (0..ids as u32)
                .filter(|&id| set[id as usize])
                .map(|id| names.name(id).to_string())
                .collect()
        };
        report.may_block = named(&may_block);
        let atomic: Vec<bool> = atomic.iter().map(Option::is_some).collect();
        report.atomic_functions = named(&atomic);
        report.seeds = seeds;
        report
    }
}

/// Every call site of every defined function, read off the facts, and
/// the numbers of their targets (each site's are a range of the second
/// vector): a bare name that no parameter, local or global shadows is a
/// direct call, and every other callee resolves through points-to.
fn sites<'a>(
    names: &mut Names<'a>,
    facts: &'a [Arc<FnFacts>],
    pts: &'a ivy_analysis::PointsToResult,
) -> (Vec<Site<'a>>, Vec<u32>) {
    let program = names.program;
    let (mut sites, mut targets) = (Vec::new(), Vec::new());
    for (func, facts) in program.functions.iter().zip(facts) {
        if func.body.is_none() {
            continue;
        }
        let caller = names.id(&func.name);
        let start = func.span.start.line;
        for call in &facts.calls {
            let first = targets.len();
            let mut site = Site {
                caller,
                callee_text: call.callee.text(),
                targets: first..first,
                in_call_graph: true,
                waits_for_memory: false,
                in_atomic_region: call.lock_depth > 0,
                span: call.span.shift_lines(start),
            };
            match &call.callee {
                Callee::Name { name, args } if program.global(name).is_none() => {
                    let declared = program.function(name);
                    site.in_call_graph = declared.is_some();
                    site.waits_for_memory = waits_for_memory(declared, name, args);
                    targets.push(names.id(name));
                }
                callee => {
                    let resolved = pts.indirect_targets_for(&func.name, callee.text());
                    for target in resolved.into_iter().flatten() {
                        targets.push(names.id(target));
                    }
                }
            }
            site.targets.end = targets.len();
            sites.push(site);
        }
    }
    (sites, targets)
}

/// True if this call to `name` (`declared`, when the program defines or
/// declares it) is to a conditional allocator with flags that allow
/// sleeping (either a non-constant flags argument, or a constant containing
/// `GFP_WAIT`).
fn waits_for_memory(declared: Option<&Function>, name: &str, args: &[Option<i64>]) -> bool {
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
        Some(Some(v)) => v & GFP_WAIT != 0,
        Some(None) => true, // unknown flags: conservatively may sleep
        None => false,
    }
}

/// A call chain from `from` down to a blocking seed, for diagnostics:
/// breadth first, each function's callees in name order.
fn blocking_chain(from: u32, names: &Names, callees: &[Vec<u32>], is_seed: &[bool]) -> Vec<String> {
    let mut prev: Vec<Option<u32>> = vec![None; callees.len()];
    let mut seen = vec![false; callees.len()];
    seen[from as usize] = true;
    let mut queue = VecDeque::from([from]);
    while let Some(f) = queue.pop_front() {
        if is_seed[f as usize] {
            let mut chain = vec![names.name(f).to_string()];
            let mut cur = f;
            while let Some(p) = prev[cur as usize] {
                chain.push(names.name(p).to_string());
                cur = p;
            }
            chain.reverse();
            return chain;
        }
        for &callee in &callees[f as usize] {
            if !std::mem::replace(&mut seen[callee as usize], true) {
                prev[callee as usize] = Some(f);
                queue.push_back(callee);
            }
        }
    }
    vec![names.name(from).to_string()]
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
