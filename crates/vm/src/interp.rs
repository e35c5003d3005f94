//! The KC interpreter: executes programs against the VM memory, kernel
//! runtime state, and cycle cost model.
//!
//! The interpreter is the "hardware + VMware" substitute for the paper's
//! evaluation: a deputized kernel is simply a program with `Check` statements
//! inserted (executed when [`VmConfig::deputy_checks`] is on), and a
//! CCount-instrumented kernel is one executed with [`VmConfig::ccount`] on,
//! which maintains per-chunk reference counts on every pointer store outside
//! the stack and verifies them at free time.

use crate::cost::{CostModel, CycleCounter, MachineConfig};
use crate::error::{TrapKind, VmError, VmResult};
use crate::mem::{Memory, ObjectKind, CODE_BASE};
use crate::stats::{BadFree, BlockingViolation, CheckFailure, RunStats};
use crate::trace::{ResolvedAddr, TraceEvent, Tracer};
use crate::value::Value;
use ivy_cmir::ast::{BinOp, Block, Check, Expr, Function, Program, Stmt, UnOp};
use ivy_cmir::layout::LayoutCtx;
use ivy_cmir::types::{IntKind, Type};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// The GFP flag bit that allows an allocation to sleep (`GFP_WAIT`).
pub const GFP_WAIT: i64 = 0x10;

/// Configuration of a VM run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmConfig {
    /// Machine model (UP vs SMP refcount costs).
    pub machine: MachineConfig,
    /// Execute (and charge for) Deputy run-time checks.
    pub deputy_checks: bool,
    /// Maintain CCount reference counts and verify frees.
    pub ccount: bool,
    /// Execute BlockStop `assert_may_block` assertions.
    pub blockstop_asserts: bool,
    /// Trap (abort the run) when a Deputy check fails instead of logging.
    pub trap_on_check_failure: bool,
    /// Trap when a CCount free check fails instead of log-and-leak.
    pub trap_on_bad_free: bool,
    /// Maximum number of statements executed before aborting (runaway-loop
    /// protection for generated workloads).
    pub max_steps: u64,
    /// Maximum KC call-stack depth before aborting. Each KC frame costs
    /// several host frames, so harnesses running on small thread stacks
    /// (tests, the oracle's minimizer) should lower this well below the
    /// default of 512.
    pub max_call_depth: usize,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            machine: MachineConfig::default(),
            deputy_checks: false,
            ccount: false,
            blockstop_asserts: false,
            trap_on_check_failure: false,
            trap_on_bad_free: false,
            max_steps: 200_000_000,
            max_call_depth: 512,
        }
    }
}

impl VmConfig {
    /// Baseline kernel: no instrumentation at all.
    pub fn baseline() -> Self {
        VmConfig::default()
    }

    /// Deputized kernel: Deputy run-time checks enabled.
    pub fn deputized() -> Self {
        VmConfig {
            deputy_checks: true,
            ..VmConfig::default()
        }
    }

    /// CCount kernel: reference counting enabled.
    pub fn ccounted(smp: bool) -> Self {
        VmConfig {
            ccount: true,
            machine: MachineConfig { smp },
            ..VmConfig::default()
        }
    }

    /// Fully instrumented kernel: Deputy + CCount + BlockStop assertions.
    pub fn full(smp: bool) -> Self {
        VmConfig {
            deputy_checks: true,
            ccount: true,
            blockstop_asserts: true,
            machine: MachineConfig { smp },
            ..VmConfig::default()
        }
    }
}

/// Control-flow signal produced by statement execution.
enum Flow {
    Normal,
    Break,
    Continue,
    Return(Value),
}

/// One activation record.
pub(crate) struct Frame {
    pub(crate) func: String,
    pub(crate) locals: HashMap<String, (u32, Type)>,
    stack_mark: u32,
}

/// The virtual machine.
pub struct Vm {
    pub(crate) program: Program,
    /// Memory (public for tests and tools that want to inspect the heap).
    pub mem: Memory,
    /// Cost model in effect.
    pub cost: CostModel,
    /// Run configuration.
    pub config: VmConfig,
    /// Statistics accumulated so far.
    pub stats: RunStats,
    pub(crate) cycles: CycleCounter,
    pub(crate) globals: HashMap<String, (u32, Type)>,
    pub(crate) global_names: HashMap<u32, String>,
    pub(crate) func_addrs: HashMap<String, u32>,
    pub(crate) addr_funcs: HashMap<u32, String>,
    pub(crate) string_cache: HashMap<String, u32>,
    pub(crate) call_stack: Vec<String>,
    pub(crate) irq_depth: u32,
    pub(crate) locks_held: Vec<String>,
    pub(crate) delayed_free_stack: Vec<Vec<u32>>,
    /// Offsets within heap/global objects where pointer values are stored
    /// (keyed by object base). Used for type-aware free/memset/memcpy.
    pub(crate) ptr_slots: HashMap<u32, BTreeSet<u32>>,
    /// Attached dynamic-fact tracer, if any (see [`crate::trace`]).
    tracer: Option<Box<dyn Tracer>>,
    /// Live stack slots, `base -> (size, function, variable)`; maintained
    /// only while a tracer is attached, so [`Vm::resolve_addr`] can map
    /// stack addresses back to locals.
    trace_locals: BTreeMap<u32, (u32, String, String)>,
    /// Dynamic-fact trace events delivered to the attached tracer. Kept
    /// out of [`RunStats`] so traced and untraced runs stay
    /// stats-identical (the tracing-transparency invariant).
    trace_events: u64,
}

impl Vm {
    /// Creates a VM for a program: lays out globals, interns nothing else.
    pub fn new(program: Program, config: VmConfig) -> VmResult<Vm> {
        let mut vm = Vm {
            mem: Memory::new(),
            cost: CostModel::default(),
            config,
            stats: RunStats::default(),
            cycles: CycleCounter::new(),
            globals: HashMap::new(),
            global_names: HashMap::new(),
            func_addrs: HashMap::new(),
            addr_funcs: HashMap::new(),
            string_cache: HashMap::new(),
            call_stack: Vec::new(),
            irq_depth: 0,
            locks_held: Vec::new(),
            delayed_free_stack: Vec::new(),
            ptr_slots: HashMap::new(),
            tracer: None,
            trace_locals: BTreeMap::new(),
            trace_events: 0,
            program,
        };
        vm.assign_function_addresses();
        vm.layout_globals()?;
        Ok(vm)
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Total cycles charged so far.
    pub fn cycles(&self) -> u64 {
        self.cycles.total()
    }

    /// The address of a global variable, if it exists.
    pub fn global_addr(&self, name: &str) -> Option<u32> {
        self.globals.get(name).map(|(a, _)| *a)
    }

    /// Current interrupt-disable nesting depth.
    pub fn irq_depth(&self) -> u32 {
        self.irq_depth
    }

    /// Attaches a dynamic-fact tracer. Attach before [`Vm::run`]; facts
    /// from global initialisers (which run in [`Vm::new`]) are not traced.
    pub fn attach_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.tracer = Some(tracer);
    }

    /// Detaches and returns the tracer, if one was attached.
    pub fn take_tracer(&mut self) -> Option<Box<dyn Tracer>> {
        self.tracer.take()
    }

    /// True while a tracer is attached (hooks and the stack-slot registry
    /// are active).
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Delivers an event to the attached tracer (no-op without one). The
    /// tracer is taken out for the duration of the callback so it can
    /// borrow the VM immutably.
    fn trace_event(&mut self, event: TraceEvent<'_>) {
        if let Some(mut t) = self.tracer.take() {
            self.trace_events += 1;
            t.on_event(self, event);
            self.tracer = Some(t);
        }
    }

    /// Resolves a concrete address to the program entity that owns it.
    /// Stack addresses resolve only while a tracer is attached (the slot
    /// registry is tracer-gated); freed heap objects resolve to
    /// [`ResolvedAddr::Unknown`].
    pub fn resolve_addr(&self, addr: u32) -> ResolvedAddr {
        if addr == 0 {
            return ResolvedAddr::Null;
        }
        if Memory::is_code_addr(addr) {
            return match self.addr_funcs.get(&addr) {
                Some(f) => ResolvedAddr::Code { func: f.clone() },
                None => ResolvedAddr::Unknown,
            };
        }
        if Memory::is_stack_addr(addr) {
            if let Some((base, (size, func, var))) = self.trace_locals.range(..=addr).next_back() {
                if addr < base + size {
                    return ResolvedAddr::StackLocal {
                        func: func.clone(),
                        var: var.clone(),
                        offset: addr - base,
                    };
                }
            }
            return ResolvedAddr::Unknown;
        }
        match self.mem.object_containing(addr) {
            Some(obj) => match obj.kind {
                ObjectKind::Global => match self.global_names.get(&obj.base) {
                    Some(name) => ResolvedAddr::Global {
                        name: name.clone(),
                        offset: addr - obj.base,
                    },
                    None => ResolvedAddr::Rodata,
                },
                ObjectKind::Rodata => ResolvedAddr::Rodata,
                ObjectKind::Heap if obj.live => ResolvedAddr::Heap {
                    base: obj.base,
                    offset: addr - obj.base,
                },
                _ => ResolvedAddr::Unknown,
            },
            None => ResolvedAddr::Unknown,
        }
    }

    /// Runs `entry(args...)` to completion and returns its value.
    pub fn run(&mut self, entry: &str, args: Vec<Value>) -> VmResult<Value> {
        let _span = ivy_telemetry::span("vm/run", entry.to_string());
        let (cycles_before, events_before) = (self.stats.cycles, self.trace_events);
        let outcome = self.call_function(entry, args).map_err(|mut e| {
            if e.stack.is_empty() {
                e.stack = self.call_stack.clone();
            }
            e
        });
        ivy_telemetry::counter_labeled(
            "ivy_vm_cycles_total",
            "entry",
            entry,
            self.stats.cycles - cycles_before,
        );
        ivy_telemetry::counter_labeled(
            "ivy_vm_trace_events_total",
            "entry",
            entry,
            self.trace_events - events_before,
        );
        outcome
    }

    /// Dynamic-fact trace events delivered to the attached tracer so far
    /// (0 when no tracer was ever attached).
    pub fn trace_events(&self) -> u64 {
        self.trace_events
    }

    fn assign_function_addresses(&mut self) {
        for (i, f) in self.program.functions.iter().enumerate() {
            let addr = CODE_BASE + (i as u32 + 1) * 16;
            self.func_addrs.insert(f.name.clone(), addr);
            self.addr_funcs.insert(addr, f.name.clone());
        }
    }

    fn layout_globals(&mut self) -> VmResult<()> {
        let globals = Arc::clone(&self.program.globals);
        for g in globals.iter() {
            let size = self.size_of(&g.decl.ty)? as u32;
            let addr = self.mem.alloc_global(size);
            self.globals
                .insert(g.decl.name.clone(), (addr, g.decl.ty.clone()));
            self.global_names.insert(addr, g.decl.name.clone());
        }
        // Initialisers may reference other globals, so run them after layout.
        for g in globals.iter() {
            if let Some(init) = &g.init {
                let frame = Frame {
                    func: "<global-init>".to_string(),
                    locals: HashMap::new(),
                    stack_mark: self.mem.stack_mark(),
                };
                let v = self.eval(init, &frame)?;
                let (addr, ty) = self.globals[&g.decl.name].clone();
                self.store_typed(addr, &ty, v, false)?;
            }
        }
        Ok(())
    }

    // ----- type helpers -----

    pub(crate) fn size_of(&self, ty: &Type) -> VmResult<u64> {
        LayoutCtx::new(&self.program)
            .size_of(ty)
            .map_err(|e| VmError::new(TrapKind::IllFormed, format!("layout error: {e}")))
    }

    pub(crate) fn field_offset(&self, composite: &str, field: &str) -> VmResult<u64> {
        LayoutCtx::new(&self.program)
            .field_offset(composite, field)
            .map_err(|e| VmError::new(TrapKind::IllFormed, format!("layout error: {e}")))
    }

    fn resolve<'a>(&'a self, ty: &'a Type) -> &'a Type {
        self.program.resolve_type(ty)
    }

    /// Computes the static type of an expression in the context of a frame.
    pub(crate) fn type_of_expr(&self, e: &Expr, frame: &Frame) -> VmResult<Type> {
        match e {
            Expr::Int(_) => Ok(Type::Int(IntKind::I32)),
            Expr::Str(_) => Ok(Type::ptr(Type::u8())),
            Expr::Null => Ok(Type::ptr(Type::Void)),
            Expr::SizeOf(_) => Ok(Type::Int(IntKind::U32)),
            Expr::Var(name) => {
                if let Some((_, ty)) = frame.locals.get(name) {
                    Ok(ty.clone())
                } else if let Some((_, ty)) = self.globals.get(name) {
                    Ok(ty.clone())
                } else if let Some(f) = self.program.function(name) {
                    Ok(Type::Func(Box::new(f.func_type())))
                } else {
                    Err(undefined(name))
                }
            }
            Expr::Unary(UnOp::Not, _) => Ok(Type::Int(IntKind::I32)),
            Expr::Unary(_, inner) => self.type_of_expr(inner, frame),
            Expr::Binary(op, a, b) => {
                if op.is_comparison() || op.is_logical() {
                    return Ok(Type::Int(IntKind::I32));
                }
                let ta = self.type_of_expr(a, frame)?;
                if self.resolve(&ta).is_ptr() {
                    return Ok(ta);
                }
                let tb = self.type_of_expr(b, frame)?;
                if self.resolve(&tb).is_ptr() {
                    return Ok(tb);
                }
                Ok(ta)
            }
            Expr::Deref(inner) | Expr::Index(inner, _) => {
                let t = self.type_of_expr(inner, frame)?;
                match self.resolve(&t) {
                    Type::Ptr(p, _) => Ok((**p).clone()),
                    Type::Array(el, _) => Ok((**el).clone()),
                    other => Err(VmError::new(
                        TrapKind::IllFormed,
                        format!("dereference of non-pointer type `{other}`"),
                    )),
                }
            }
            Expr::Field(obj, field) => {
                let t = self.type_of_expr(obj, frame)?;
                self.field_type(&t, field)
            }
            Expr::Arrow(obj, field) => {
                let t = self.type_of_expr(obj, frame)?;
                match self.resolve(&t) {
                    Type::Ptr(p, _) => {
                        let inner = (**p).clone();
                        self.field_type(&inner, field)
                    }
                    other => Err(VmError::new(
                        TrapKind::IllFormed,
                        format!("`->` on non-pointer type `{other}`"),
                    )),
                }
            }
            Expr::AddrOf(inner) => Ok(Type::ptr(self.type_of_expr(inner, frame)?)),
            Expr::Cast(t, _) => Ok(t.clone()),
            Expr::Call(callee, _) => {
                let t = self.type_of_expr(callee, frame)?;
                match self.resolve(&t) {
                    Type::Func(ft) => Ok(ft.ret.clone()),
                    Type::Ptr(inner, _) => match self.resolve(inner) {
                        Type::Func(ft) => Ok(ft.ret.clone()),
                        _ => Ok(Type::Int(IntKind::I32)),
                    },
                    _ => Ok(Type::Int(IntKind::I32)),
                }
            }
        }
    }

    fn field_type(&self, obj_ty: &Type, field: &str) -> VmResult<Type> {
        match self.resolve(obj_ty) {
            Type::Struct(name) | Type::Union(name) => {
                let def = self.program.composite(name).ok_or_else(|| {
                    VmError::new(TrapKind::IllFormed, format!("undefined composite `{name}`"))
                })?;
                def.field(field).map(|f| f.ty.clone()).ok_or_else(|| {
                    VmError::new(
                        TrapKind::IllFormed,
                        format!("`{name}` has no field `{field}`"),
                    )
                })
            }
            other => Err(VmError::new(
                TrapKind::IllFormed,
                format!("field access on non-composite `{other}`"),
            )),
        }
    }

    // ----- loads and stores -----

    pub(crate) fn load_typed(&mut self, addr: u32, ty: &Type) -> VmResult<Value> {
        let resolved = self.resolve(ty).clone();
        match resolved {
            Type::Array(..) | Type::Struct(_) | Type::Union(_) => Ok(Value::Ptr(addr)),
            Type::Ptr(..) | Type::Func(_) => {
                self.charge(self.cost.load);
                let raw = self.mem.read(addr, 4)?;
                Ok(Value::Ptr(raw as u32))
            }
            Type::Bool => {
                self.charge(self.cost.load);
                Ok(Value::Int((self.mem.read(addr, 1)? != 0) as i64))
            }
            Type::Int(k) => {
                self.charge(self.cost.load);
                let raw = self.mem.read(addr, k.size() as u32)?;
                Ok(Value::Int(k.truncate(raw as i64)))
            }
            Type::Void => Ok(Value::Int(0)),
            Type::Named(_) => unreachable!("resolved above"),
        }
    }

    /// Stores a value of declared type `ty` at `addr`, maintaining CCount
    /// reference counts when enabled and the address is outside the stack.
    pub(crate) fn store_typed(
        &mut self,
        addr: u32,
        ty: &Type,
        value: Value,
        charge_rc: bool,
    ) -> VmResult<()> {
        let resolved = self.resolve(ty).clone();
        match resolved {
            Type::Ptr(..) | Type::Func(_) => {
                self.charge(self.cost.store);
                let new_target = value.as_ptr();
                if self.config.ccount && charge_rc && !Memory::is_stack_addr(addr) {
                    // RC(b)++, RC(*a)--, *a = b — increment first to avoid a
                    // transitory zero count (the paper's ordering rule).
                    let old = self.mem.read(addr, 4)? as u32;
                    let mut updates = 0;
                    if self.mem.rc_adjust(new_target, 1) {
                        updates += 1;
                    }
                    if self.mem.rc_adjust(old, -1) {
                        updates += 1;
                    }
                    if updates > 0 {
                        self.stats.rc_updates += updates;
                        self.charge(self.cost.rc_update(self.config.machine) * updates);
                    }
                }
                self.track_ptr_slot(addr, true);
                self.mem.write(addr, 4, u64::from(new_target))
            }
            Type::Bool => {
                self.charge(self.cost.store);
                self.track_ptr_slot(addr, false);
                self.mem.write(addr, 1, u64::from(value.truthy()))
            }
            Type::Int(k) => {
                self.charge(self.cost.store);
                self.untrack_overwritten_ptr(addr, charge_rc)?;
                self.mem.write(addr, k.size() as u32, value.as_int() as u64)
            }
            Type::Array(..) | Type::Struct(_) | Type::Union(_) => {
                // Whole-object assignment: copy bytes from the source object.
                let size = self.size_of(&resolved)? as u32;
                self.charge(self.cost.copy_cost(size));
                self.mem.copy(addr, value.as_ptr(), size)
            }
            Type::Void => Ok(()),
            Type::Named(_) => unreachable!("resolved above"),
        }
    }

    fn track_ptr_slot(&mut self, addr: u32, is_ptr: bool) {
        if Memory::is_stack_addr(addr) {
            return;
        }
        if let Some(obj) = self.mem.object_containing(addr) {
            let base = obj.base;
            let off = addr - base;
            let set = self.ptr_slots.entry(base).or_default();
            if is_ptr {
                set.insert(off);
            } else {
                set.remove(&off);
            }
        }
    }

    fn untrack_overwritten_ptr(&mut self, addr: u32, charge_rc: bool) -> VmResult<()> {
        if !self.config.ccount || Memory::is_stack_addr(addr) {
            return Ok(());
        }
        let Some(obj) = self.mem.object_containing(addr) else {
            return Ok(());
        };
        let base = obj.base;
        let off = addr - base;
        let tracked = self
            .ptr_slots
            .get(&base)
            .map(|s| s.contains(&off))
            .unwrap_or(false);
        if tracked {
            let old = self.mem.read(addr, 4)? as u32;
            if charge_rc && self.mem.rc_adjust(old, -1) {
                self.stats.rc_updates += 1;
                self.charge(self.cost.rc_update(self.config.machine));
            }
            if let Some(s) = self.ptr_slots.get_mut(&base) {
                s.remove(&off);
            }
        }
        Ok(())
    }

    // ----- evaluation -----

    pub(crate) fn charge(&mut self, cycles: u64) {
        self.cycles.charge(cycles);
        self.stats.cycles = self.cycles.total();
    }

    fn step(&mut self) -> VmResult<()> {
        self.stats.steps += 1;
        if self.stats.steps > self.config.max_steps {
            return Err(VmError::new(
                TrapKind::StepLimit,
                format!("exceeded {} statements", self.config.max_steps),
            ));
        }
        Ok(())
    }

    /// Evaluates an expression to a value.
    fn eval(&mut self, e: &Expr, frame: &Frame) -> VmResult<Value> {
        match e {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Null => Ok(Value::NULL),
            Expr::Str(s) => {
                if let Some(addr) = self.string_cache.get(s) {
                    return Ok(Value::Ptr(*addr));
                }
                let addr = self.mem.alloc_rodata(s.as_bytes());
                self.string_cache.insert(s.clone(), addr);
                Ok(Value::Ptr(addr))
            }
            Expr::SizeOf(t) => Ok(Value::Int(self.size_of(t)? as i64)),
            Expr::Var(name) => {
                if let Some((addr, ty)) = frame.locals.get(name).cloned() {
                    self.load_typed(addr, &ty)
                } else if let Some((addr, ty)) = self.globals.get(name).cloned() {
                    self.load_typed(addr, &ty)
                } else if let Some(addr) = self.func_addrs.get(name) {
                    Ok(Value::Ptr(*addr))
                } else {
                    Err(undefined(name))
                }
            }
            Expr::Unary(op, inner) => {
                let v = self.eval(inner, frame)?;
                self.charge(self.cost.alu);
                Ok(match op {
                    UnOp::Neg => Value::Int(-v.as_int()),
                    UnOp::Not => Value::Int((!v.truthy()) as i64),
                    UnOp::BitNot => Value::Int(!v.as_int()),
                })
            }
            Expr::Binary(op, a, b) => self.eval_binary(*op, a, b, frame),
            Expr::Deref(_) | Expr::Index(..) | Expr::Field(..) | Expr::Arrow(..) => {
                let (addr, ty) = self.lval(e, frame)?;
                self.load_typed(addr, &ty)
            }
            Expr::AddrOf(inner) => {
                let (addr, _) = self.lval(inner, frame)?;
                Ok(Value::Ptr(addr))
            }
            Expr::Cast(t, inner) => {
                let v = self.eval(inner, frame)?;
                Ok(match self.resolve(t) {
                    Type::Int(k) => Value::Int(k.truncate(v.as_int())),
                    Type::Bool => Value::Int(v.truthy() as i64),
                    Type::Ptr(..) | Type::Func(_) => Value::Ptr(v.as_ptr()),
                    _ => v,
                })
            }
            Expr::Call(callee, args) => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a, frame)?);
                }
                let name = self.resolve_callee(callee, frame)?;
                let result = self.call_function(&name, argv)?;
                if self.tracer.is_some()
                    && self
                        .program
                        .function(&name)
                        .map(|f| f.attrs.allocator)
                        .unwrap_or(false)
                {
                    let func = frame.func.clone();
                    let call_text = ivy_cmir::pretty::expr_str(e);
                    let base = result.as_ptr();
                    self.trace_event(TraceEvent::Alloc {
                        func: &func,
                        call_text,
                        base,
                    });
                }
                Ok(result)
            }
        }
    }

    fn resolve_callee(&mut self, callee: &Expr, frame: &Frame) -> VmResult<String> {
        if let Expr::Var(name) = callee {
            if !frame.locals.contains_key(name)
                && !self.globals.contains_key(name)
                && self.program.function(name).is_some()
            {
                return Ok(name.clone());
            }
        }
        let v = self.eval(callee, frame)?;
        let addr = v.as_ptr();
        let target = self.addr_funcs.get(&addr).cloned().ok_or_else(|| {
            VmError::new(
                TrapKind::Undefined,
                format!("call through invalid function pointer 0x{addr:x}"),
            )
        })?;
        if self.tracer.is_some() {
            let caller = frame.func.clone();
            let callee_text = ivy_cmir::pretty::expr_str(callee);
            self.trace_event(TraceEvent::IndirectCall {
                caller: &caller,
                callee_text,
                target: &target,
            });
        }
        Ok(target)
    }

    fn eval_binary(&mut self, op: BinOp, a: &Expr, b: &Expr, frame: &Frame) -> VmResult<Value> {
        // Short-circuit operators.
        if op == BinOp::LAnd {
            let va = self.eval(a, frame)?;
            self.charge(self.cost.branch);
            if !va.truthy() {
                return Ok(Value::Int(0));
            }
            let vb = self.eval(b, frame)?;
            return Ok(Value::Int(vb.truthy() as i64));
        }
        if op == BinOp::LOr {
            let va = self.eval(a, frame)?;
            self.charge(self.cost.branch);
            if va.truthy() {
                return Ok(Value::Int(1));
            }
            let vb = self.eval(b, frame)?;
            return Ok(Value::Int(vb.truthy() as i64));
        }

        let va = self.eval(a, frame)?;
        let vb = self.eval(b, frame)?;
        self.charge(self.cost.alu);

        // Pointer arithmetic scales by the pointee size.
        if matches!(op, BinOp::Add | BinOp::Sub) {
            let ta = self.type_of_expr(a, frame)?;
            let ta_res = self.resolve(&ta).clone();
            if let Type::Ptr(pointee, _) = &ta_res {
                let elem = self.size_of(pointee).unwrap_or(1).max(1) as i64;
                let tb = self.type_of_expr(b, frame)?;
                if self.resolve(&tb).is_ptr() && op == BinOp::Sub {
                    let diff = i64::from(va.as_ptr()) - i64::from(vb.as_ptr());
                    return Ok(Value::Int(diff / elem));
                }
                let delta = vb.as_int() * elem;
                let base = i64::from(va.as_ptr());
                let out = if op == BinOp::Add {
                    base + delta
                } else {
                    base - delta
                };
                return Ok(Value::Ptr(out as u32));
            }
            // int + ptr
            if let Type::Ptr(pointee, _) = self.resolve(&self.type_of_expr(b, frame)?).clone() {
                if op == BinOp::Add {
                    let elem = self.size_of(&pointee).unwrap_or(1).max(1) as i64;
                    let out = i64::from(vb.as_ptr()) + va.as_int() * elem;
                    return Ok(Value::Ptr(out as u32));
                }
            }
        }

        let x = va.as_int();
        let y = vb.as_int();
        let r = match op {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::Div => {
                if y == 0 {
                    return Err(VmError::new(TrapKind::DivideByZero, "division by zero"));
                }
                x.wrapping_div(y)
            }
            BinOp::Rem => {
                if y == 0 {
                    return Err(VmError::new(TrapKind::DivideByZero, "remainder by zero"));
                }
                x.wrapping_rem(y)
            }
            BinOp::And => x & y,
            BinOp::Or => x | y,
            BinOp::Xor => x ^ y,
            BinOp::Shl => x.wrapping_shl(y as u32 & 63),
            BinOp::Shr => x.wrapping_shr(y as u32 & 63),
            BinOp::Eq => (va.as_int() == vb.as_int()) as i64,
            BinOp::Ne => (va.as_int() != vb.as_int()) as i64,
            BinOp::Lt => (x < y) as i64,
            BinOp::Le => (x <= y) as i64,
            BinOp::Gt => (x > y) as i64,
            BinOp::Ge => (x >= y) as i64,
            BinOp::LAnd | BinOp::LOr => unreachable!("handled above"),
        };
        Ok(Value::Int(r))
    }

    /// Evaluates an lvalue expression to (address, declared type).
    fn lval(&mut self, e: &Expr, frame: &Frame) -> VmResult<(u32, Type)> {
        match e {
            Expr::Var(name) => {
                if let Some((addr, ty)) = frame.locals.get(name) {
                    Ok((*addr, ty.clone()))
                } else if let Some((addr, ty)) = self.globals.get(name) {
                    Ok((*addr, ty.clone()))
                } else {
                    Err(undefined(name))
                }
            }
            Expr::Deref(inner) => {
                let v = self.eval(inner, frame)?;
                let t = self.type_of_expr(inner, frame)?;
                let pointee = match self.resolve(&t) {
                    Type::Ptr(p, _) => (**p).clone(),
                    Type::Array(el, _) => (**el).clone(),
                    other => {
                        return Err(VmError::new(
                            TrapKind::IllFormed,
                            format!("dereference of non-pointer `{other}`"),
                        ))
                    }
                };
                Ok((v.as_ptr(), pointee))
            }
            Expr::Index(base, idx) => {
                let t = self.type_of_expr(base, frame)?;
                let resolved = self.resolve(&t).clone();
                let (base_addr, elem_ty) = match resolved {
                    Type::Ptr(p, _) => (self.eval(base, frame)?.as_ptr(), (*p).clone()),
                    Type::Array(el, _) => {
                        let (addr, _) = self.lval(base, frame)?;
                        (addr, (*el).clone())
                    }
                    other => {
                        return Err(VmError::new(
                            TrapKind::IllFormed,
                            format!("indexing non-pointer `{other}`"),
                        ))
                    }
                };
                let i = self.eval(idx, frame)?.as_int();
                let elem = self.size_of(&elem_ty)?.max(1);
                self.charge(self.cost.alu);
                let addr = (i64::from(base_addr) + i * elem as i64) as u32;
                Ok((addr, elem_ty))
            }
            Expr::Field(obj, field) => {
                let (base, ty) = self.lval(obj, frame)?;
                let comp = match self.resolve(&ty) {
                    Type::Struct(n) | Type::Union(n) => n.clone(),
                    other => {
                        return Err(VmError::new(
                            TrapKind::IllFormed,
                            format!("field access on `{other}`"),
                        ))
                    }
                };
                let off = self.field_offset(&comp, field)? as u32;
                let fty = self
                    .field_type(&Type::Struct(comp.clone()), field)
                    .or_else(|_| self.field_type(&Type::Union(comp.clone()), field))?;
                Ok((base + off, fty))
            }
            Expr::Arrow(obj, field) => {
                let ptr = self.eval(obj, frame)?.as_ptr();
                let t = self.type_of_expr(obj, frame)?;
                let comp = match self.resolve(&t) {
                    Type::Ptr(inner, _) => match self.resolve(inner) {
                        Type::Struct(n) | Type::Union(n) => n.clone(),
                        other => {
                            return Err(VmError::new(
                                TrapKind::IllFormed,
                                format!("`->` on pointer to `{other}`"),
                            ))
                        }
                    },
                    other => {
                        return Err(VmError::new(
                            TrapKind::IllFormed,
                            format!("`->` on `{other}`"),
                        ))
                    }
                };
                let off = self.field_offset(&comp, field)? as u32;
                let fty = self
                    .field_type(&Type::Struct(comp.clone()), field)
                    .or_else(|_| self.field_type(&Type::Union(comp.clone()), field))?;
                Ok((ptr + off, fty))
            }
            Expr::Cast(_, inner) => self.lval(inner, frame),
            other => Err(VmError::new(
                TrapKind::IllFormed,
                format!(
                    "expression is not an lvalue: {}",
                    ivy_cmir::pretty::expr_str(other)
                ),
            )),
        }
    }

    // ----- calls -----

    /// Calls a function (KC-defined or builtin) with already-evaluated
    /// arguments.
    pub fn call_function(&mut self, name: &str, args: Vec<Value>) -> VmResult<Value> {
        self.stats.calls += 1;
        self.charge(self.cost.call);
        if self.call_stack.len() > self.config.max_call_depth {
            return Err(VmError::new(
                TrapKind::StepLimit,
                format!("call stack depth exceeded {}", self.config.max_call_depth),
            ));
        }

        // The program's own handle: a call shares the definition instead
        // of cloning its body.
        let func = self.program.functions.get_arc(name).cloned();
        match func {
            Some(f) if f.body.is_some() => {
                self.note_blocking_entry(&f, &args);
                self.exec_defined(&f, args)
            }
            _ => {
                // Builtin or extern: dispatch by name.
                self.call_builtin(name, &args)
            }
        }
    }

    fn note_blocking_entry(&mut self, f: &Function, args: &[Value]) {
        let mut may_block = f.attrs.blocking;
        if let Some(flag_param) = &f.attrs.blocking_if_flag {
            if let Some(idx) = f.params.iter().position(|p| &p.name == flag_param) {
                if let Some(v) = args.get(idx) {
                    if v.as_int() & GFP_WAIT != 0 {
                        may_block = true;
                    }
                }
            }
        }
        if may_block {
            self.note_block_attempt(&f.name);
        }
    }

    /// True when the declared type stores a pointer value (the events the
    /// tracer cares about).
    fn is_ptr_type(&self, ty: &Type) -> bool {
        matches!(self.resolve(ty), Type::Ptr(..) | Type::Func(_))
    }

    /// Records a blocking attempt; a violation if the kernel is in atomic
    /// context (interrupts disabled or holding a spinlock).
    pub(crate) fn note_block_attempt(&mut self, callee: &str) {
        if self.irq_depth > 0 || !self.locks_held.is_empty() {
            let caller = self
                .call_stack
                .last()
                .cloned()
                .unwrap_or_else(|| "<entry>".to_string());
            self.stats.blocking_violations.push(BlockingViolation {
                callee: callee.to_string(),
                caller: caller.clone(),
                irq_depth: self.irq_depth,
                locks_held: self.locks_held.clone(),
            });
            if self.tracer.is_some() {
                let (irq_depth, locks_held) = (self.irq_depth, self.locks_held.len());
                self.trace_event(TraceEvent::BlockedInAtomic {
                    caller: &caller,
                    callee,
                    irq_depth,
                    locks_held,
                });
            }
        }
    }

    fn exec_defined(&mut self, f: &Function, args: Vec<Value>) -> VmResult<Value> {
        let mark = self.mem.stack_mark();
        // Interrupt handlers (and functions annotated as disabling
        // interrupts) execute in atomic context for their whole body.
        let enters_atomic = f.attrs.interrupt_handler || f.attrs.disables_irq;
        if enters_atomic {
            self.irq_depth += 1;
        }
        let mut frame = Frame {
            func: f.name.clone(),
            locals: HashMap::new(),
            stack_mark: mark,
        };
        for (i, p) in f.params.iter().enumerate() {
            let size = self.size_of(&p.ty)? as u32;
            let addr = self.mem.alloc_stack(size.max(4));
            let v = args.get(i).copied().unwrap_or(Value::Int(0));
            self.store_typed(addr, &p.ty, v, false)?;
            frame.locals.insert(p.name.clone(), (addr, p.ty.clone()));
            if self.tracer.is_some() {
                self.trace_locals
                    .insert(addr, (size.max(4), f.name.clone(), p.name.clone()));
                if self.is_ptr_type(&p.ty) {
                    self.trace_event(TraceEvent::PtrParam {
                        func: &f.name,
                        param: &p.name,
                        value: v.as_ptr(),
                    });
                }
            }
        }
        self.call_stack.push(f.name.clone());
        let body = f.body.as_ref().expect("exec_defined requires a body");
        let flow = self.exec_block(body, &mut frame);
        self.call_stack.pop();
        self.mem.pop_stack_frame(frame.stack_mark);
        if self.tracer.is_some() {
            // Retire this frame's slots from the tracer's stack registry.
            self.trace_locals.split_off(&frame.stack_mark);
            if let Ok(Flow::Return(v)) = &flow {
                if self.is_ptr_type(&f.ret) {
                    let value = v.as_ptr();
                    self.trace_event(TraceEvent::PtrReturn {
                        func: &f.name,
                        value,
                    });
                }
            }
        }
        if enters_atomic {
            self.irq_depth = self.irq_depth.saturating_sub(1);
        }
        self.charge(self.cost.ret);
        match flow? {
            Flow::Return(v) => Ok(v),
            _ => Ok(Value::Int(0)),
        }
    }

    fn exec_block(&mut self, block: &Block, frame: &mut Frame) -> VmResult<Flow> {
        for stmt in &block.stmts {
            match self.exec_stmt(stmt, frame)? {
                Flow::Normal => continue,
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt, frame: &mut Frame) -> VmResult<Flow> {
        self.step()?;
        match stmt {
            Stmt::Expr(e, _) => {
                self.eval(e, frame)?;
                Ok(Flow::Normal)
            }
            Stmt::Assign(lhs, rhs, _) => {
                let v = self.eval(rhs, frame)?;
                let (addr, ty) = self.lval(lhs, frame)?;
                self.store_typed(addr, &ty, v, true)?;
                if self.tracer.is_some() && self.is_ptr_type(&ty) {
                    let func = frame.func.clone();
                    self.trace_event(TraceEvent::PtrAssign {
                        func: &func,
                        lvalue: lhs,
                        decl: false,
                        value: v.as_ptr(),
                    });
                }
                Ok(Flow::Normal)
            }
            Stmt::Local(decl, init) => {
                let size = self.size_of(&decl.ty)? as u32;
                let addr = self.mem.alloc_stack(size.max(1));
                frame
                    .locals
                    .insert(decl.name.clone(), (addr, decl.ty.clone()));
                if self.tracer.is_some() {
                    self.trace_locals
                        .insert(addr, (size.max(1), frame.func.clone(), decl.name.clone()));
                }
                if let Some(e) = init {
                    let v = self.eval(e, frame)?;
                    self.store_typed(addr, &decl.ty, v, false)?;
                    if self.tracer.is_some() && self.is_ptr_type(&decl.ty) {
                        let func = frame.func.clone();
                        let lvalue = Expr::var(&decl.name);
                        self.trace_event(TraceEvent::PtrAssign {
                            func: &func,
                            lvalue: &lvalue,
                            decl: true,
                            value: v.as_ptr(),
                        });
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::If(cond, then_b, else_b, _) => {
                let c = self.eval(cond, frame)?;
                self.charge(self.cost.branch);
                if c.truthy() {
                    self.exec_block(then_b, frame)
                } else if let Some(b) = else_b {
                    self.exec_block(b, frame)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While(cond, body, _) => {
                loop {
                    let c = self.eval(cond, frame)?;
                    self.charge(self.cost.branch);
                    if !c.truthy() {
                        break;
                    }
                    match self.exec_block(body, frame)? {
                        Flow::Break => break,
                        Flow::Return(v) => return Ok(Flow::Return(v)),
                        Flow::Normal | Flow::Continue => {}
                    }
                    self.step()?;
                }
                Ok(Flow::Normal)
            }
            Stmt::Return(e, _) => {
                let v = match e {
                    Some(e) => self.eval(e, frame)?,
                    None => Value::Int(0),
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break(_) => Ok(Flow::Break),
            Stmt::Continue(_) => Ok(Flow::Continue),
            Stmt::Block(b) => self.exec_block(b, frame),
            Stmt::Check(check, _) => {
                self.exec_check(check, frame)?;
                Ok(Flow::Normal)
            }
            Stmt::DelayedFreeScope(b, _) => {
                if self.config.ccount {
                    self.delayed_free_stack.push(Vec::new());
                    let flow = self.exec_block(b, frame);
                    let deferred = self.delayed_free_stack.pop().unwrap_or_default();
                    for addr in deferred {
                        self.finish_free(addr, true)?;
                    }
                    flow
                } else {
                    self.exec_block(b, frame)
                }
            }
        }
    }

    fn exec_check(&mut self, check: &Check, frame: &mut Frame) -> VmResult<()> {
        let run_it = match check {
            Check::AssertMayBlock { .. } => self.config.blockstop_asserts,
            Check::RcFreeOk(_) => self.config.ccount,
            _ => self.config.deputy_checks,
        };
        if !run_it {
            return Ok(());
        }
        self.stats.count_check(check.kind());
        let failed: Option<String> = match check {
            Check::NonNull(e) => {
                self.charge(self.cost.check_nonnull);
                let v = self.eval(e, frame)?;
                (!v.truthy()).then(|| "null pointer".to_string())
            }
            Check::PtrBounds { ptr, index, len } => {
                let p = self.eval(ptr, frame)?.as_ptr();
                let i = self.eval(index, frame)?.as_int();
                match len {
                    Some(len_expr) => {
                        self.charge(self.cost.check_bounds);
                        let n = self.eval(len_expr, frame)?.as_int();
                        (i < 0 || i >= n).then(|| format!("index {i} outside count({n})"))
                    }
                    None => {
                        self.charge(self.cost.check_bounds_auto);
                        let ty = self.type_of_expr(ptr, frame)?;
                        let elem = match self.resolve(&ty) {
                            Type::Ptr(inner, _) => self.size_of(inner).unwrap_or(1).max(1),
                            _ => 1,
                        };
                        let target = (i64::from(p) + i * elem as i64) as u32;
                        match self.mem.object_containing(p) {
                            Some(obj)
                                if obj.live
                                    && target >= obj.base
                                    && target + elem as u32 <= obj.base + obj.size =>
                            {
                                None
                            }
                            Some(_) => Some(format!("index {i} outside object bounds")),
                            None => Some(format!("pointer 0x{p:x} not within any object")),
                        }
                    }
                }
            }
            Check::UnionTag {
                obj,
                field,
                tag,
                value,
            } => {
                self.charge(self.cost.check_union);
                let (base, ty) = self.lval(obj, frame)?;
                let comp = match self.resolve(&ty) {
                    Type::Struct(n) | Type::Union(n) => n.clone(),
                    _ => String::new(),
                };
                if comp.is_empty() {
                    None
                } else {
                    let tag_off = self.field_offset(&comp, tag).unwrap_or(0) as u32;
                    let tag_val = self.mem.read(base + tag_off, 4)? as i64;
                    (tag_val != *value).then(|| {
                        format!(
                            "union arm `{field}` read while {tag} == {tag_val} (expected {value})"
                        )
                    })
                }
            }
            Check::NullTerm(e) => {
                self.charge(self.cost.check_nullterm);
                let p = self.eval(e, frame)?.as_ptr();
                match self.mem.object_containing(p) {
                    Some(obj) => {
                        let mut found = false;
                        let mut a = p;
                        while a < obj.base + obj.size {
                            if self.mem.read(a, 1)? == 0 {
                                found = true;
                                break;
                            }
                            a += 1;
                        }
                        (!found).then(|| "missing null terminator within bounds".to_string())
                    }
                    None => Some(format!("pointer 0x{p:x} not within any object")),
                }
            }
            Check::AssertMayBlock { site } => {
                self.charge(self.cost.assert_may_block);
                if self.irq_depth > 0 {
                    self.stats.assert_failures += 1;
                    Some(format!("{site} entered with interrupts disabled"))
                } else {
                    None
                }
            }
            Check::RcFreeOk(e) => {
                let p = self.eval(e, frame)?.as_ptr();
                let obj = self.mem.object_containing(p).copied();
                let ok = match obj {
                    Some(obj) => {
                        self.charge(
                            self.cost.free_check_per_chunk
                                * u64::from(Memory::chunks_of(obj.base, obj.size)),
                        );
                        self.mem.rc_object_is_zero(obj.base, obj.size)
                    }
                    None => true,
                };
                (!ok).then(|| format!("object 0x{p:x} still referenced at free"))
            }
        };
        if let Some(detail) = failed {
            let failure = CheckFailure {
                kind: check.kind().to_string(),
                function: frame.func.clone(),
                detail,
            };
            self.stats.check_failures.push(failure.clone());
            if self.tracer.is_some() {
                let func = frame.func.clone();
                self.trace_event(TraceEvent::CheckFailed {
                    func: &func,
                    kind: check.kind(),
                });
            }
            if self.config.trap_on_check_failure {
                return Err(VmError::new(
                    TrapKind::CheckFailure,
                    format!(
                        "{} check failed in {}: {}",
                        failure.kind, failure.function, failure.detail
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Completes a free (possibly deferred from a delayed-free scope):
    /// performs the CCount check, decrements outgoing references of the
    /// freed object, and releases or leaks the storage.
    pub(crate) fn finish_free(&mut self, addr: u32, delayed: bool) -> VmResult<Value> {
        if addr == 0 {
            return Ok(Value::Int(0));
        }
        self.charge(self.cost.free);
        let Some(obj) = self.mem.object_containing(addr).copied() else {
            return Err(VmError::new(
                TrapKind::MemoryFault,
                format!("kfree of unknown address 0x{addr:x}"),
            ));
        };
        if !self.config.ccount {
            self.mem.kfree(obj.base, false)?;
            return Ok(Value::Int(0));
        }

        // Type-aware free: drop the references held *by* the freed object.
        let slots: Vec<u32> = self
            .ptr_slots
            .get(&obj.base)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        for off in &slots {
            let target = self.mem.read(obj.base + off, 4)? as u32;
            if self.mem.rc_adjust(target, -1) {
                self.stats.rc_updates += 1;
                self.charge(self.cost.rc_update(self.config.machine));
            }
        }
        self.ptr_slots.remove(&obj.base);

        // The free-safety check: no chunk of the object may still be
        // referenced.
        let chunks = Memory::chunks_of(obj.base, obj.size);
        self.charge(self.cost.free_check_per_chunk * u64::from(chunks));
        let ok = self.mem.rc_object_is_zero(obj.base, obj.size);
        if ok {
            self.stats.frees_good += 1;
            self.mem.kfree(obj.base, false)?;
        } else {
            self.stats.frees_bad += 1;
            let residual = u32::from(self.mem.rc_of(obj.base));
            let in_func = self.call_stack.last().cloned().unwrap_or_default();
            self.stats.bad_frees.push(BadFree {
                function: in_func.clone(),
                addr: obj.base,
                residual_refs: residual,
                delayed,
            });
            if self.tracer.is_some() {
                self.trace_event(TraceEvent::BadFree {
                    func: &in_func,
                    addr: obj.base,
                    delayed,
                });
            }
            if self.config.trap_on_bad_free {
                return Err(VmError::new(
                    TrapKind::BadFree,
                    format!("freeing 0x{addr:x} with {residual} outstanding reference(s)"),
                ));
            }
            // Log and leak: never reuse the storage, preserving soundness.
            self.mem.kfree(obj.base, true)?;
        }
        Ok(Value::Int(0))
    }
}

fn undefined(name: &str) -> VmError {
    VmError::new(TrapKind::Undefined, format!("undefined name `{name}`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ivy_cmir::parser::parse_program;

    fn run_src(src: &str, entry: &str, config: VmConfig) -> (VmResult<Value>, Vm) {
        let p = parse_program(src).unwrap();
        let v = ivy_cmir::typecheck::validate_program(&p);
        assert!(v.is_ok(), "validation errors: {:?}", v.errors);
        let mut vm = Vm::new(p, config).unwrap();
        let r = vm.run(entry, vec![]);
        (r, vm)
    }

    #[test]
    fn arithmetic_and_control_flow() {
        let src = r#"
            fn fib(n: u32) -> u32 {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            fn main() -> u32 { return fib(10); }
        "#;
        let (r, _) = run_src(src, "main", VmConfig::baseline());
        assert_eq!(r.unwrap(), Value::Int(55));
    }

    #[test]
    fn loops_pointers_and_arrays() {
        let src = r#"
            global table: u32[16];
            fn fill() -> u32 {
                let i: u32 = 0;
                while (i < 16) {
                    table[i] = i * i;
                    i = i + 1;
                }
                let p: u32 * = &table[3];
                return *p + table[4];
            }
        "#;
        let (r, _) = run_src(src, "fill", VmConfig::baseline());
        assert_eq!(r.unwrap(), Value::Int(9 + 16));
    }

    #[test]
    fn structs_fields_and_heap() {
        let src = r#"
            struct sk_buff {
                len: u32;
                data: u8 * count(len);
            }
            #[allocator] #[blocking_if(flags)]
            extern fn kmalloc(size: u32, flags: u32) -> void *;
            extern fn kfree(p: void *);
            fn mk() -> u32 {
                let len: u32 = 64;
                let skb: struct sk_buff * = kmalloc(sizeof(struct sk_buff), 0) as struct sk_buff *;
                skb->len = len;
                skb->data = kmalloc(len, 0) as u8 *;
                skb->data[2] = 7;
                let total: u32 = skb->len + skb->data[2] as u32;
                kfree(skb->data as void *);
                kfree(skb as void *);
                return total;
            }
        "#;
        let (r, vm) = run_src(src, "mk", VmConfig::baseline());
        assert_eq!(r.unwrap(), Value::Int(64 + 7));
        assert_eq!(vm.mem.stats.allocs, 2);
        assert_eq!(vm.mem.stats.frees, 2);
    }

    #[test]
    fn function_pointers_dispatch() {
        let src = r#"
            struct ops { handler: fnptr(u32) -> u32; }
            global table: struct ops;
            fn double_it(x: u32) -> u32 { return x * 2; }
            fn main() -> u32 {
                table.handler = double_it;
                return table.handler(21);
            }
        "#;
        let (r, _) = run_src(src, "main", VmConfig::baseline());
        assert_eq!(r.unwrap(), Value::Int(42));
    }

    #[test]
    fn deputy_checks_execute_and_fail() {
        let src = r#"
            global buf: u8[8];
            fn touch(i: u32) -> u32 {
                __check_bounds(&buf[0], i, 8);
                buf[i % 8] = 1;
                return 0;
            }
            fn ok() -> u32 { return touch(3); }
            fn bad() -> u32 { return touch(12); }
        "#;
        let (r, vm) = run_src(src, "ok", VmConfig::deputized());
        r.unwrap();
        assert_eq!(vm.stats.checks_executed["bounds"], 1);
        assert!(vm.stats.check_failures.is_empty());

        let (r2, vm2) = run_src(src, "bad", VmConfig::deputized());
        r2.unwrap();
        assert_eq!(vm2.stats.check_failures.len(), 1);

        // Checks cost nothing when disabled.
        let (_, vm3) = run_src(src, "bad", VmConfig::baseline());
        assert_eq!(vm3.stats.total_checks(), 0);
    }

    #[test]
    fn deputized_run_is_slower_than_baseline() {
        let src = r#"
            global buf: u8[64];
            fn work() -> u32 {
                let i: u32 = 0;
                while (i < 64) {
                    __check_bounds(&buf[0], i, 64);
                    buf[i] = i as u8;
                    i = i + 1;
                }
                return 0;
            }
        "#;
        let (_, base) = run_src(src, "work", VmConfig::baseline());
        let (_, dep) = run_src(src, "work", VmConfig::deputized());
        assert!(dep.cycles() > base.cycles());
        let ratio = dep.cycles() as f64 / base.cycles() as f64;
        assert!(
            ratio < 2.0,
            "bounds checks should be cheap relative to work, got {ratio}"
        );
    }

    #[test]
    fn ccount_detects_dangling_reference_at_free() {
        let src = r#"
            struct node { next: struct node *; payload: u32; }
            global list_head: struct node *;
            #[allocator]
            extern fn kmalloc(size: u32, flags: u32) -> void *;
            extern fn kfree(p: void *);
            fn bad_free() -> u32 {
                let n: struct node * = kmalloc(sizeof(struct node), 0) as struct node *;
                list_head = n;
                // BUG: freeing while list_head still points at the node.
                kfree(n as void *);
                return 0;
            }
            fn good_free() -> u32 {
                let n: struct node * = kmalloc(sizeof(struct node), 0) as struct node *;
                list_head = n;
                list_head = null;
                kfree(n as void *);
                return 0;
            }
        "#;
        let (r, vm) = run_src(src, "bad_free", VmConfig::ccounted(false));
        r.unwrap();
        assert_eq!(vm.stats.frees_bad, 1);
        assert_eq!(vm.stats.frees_good, 0);
        assert_eq!(
            vm.mem.stats.leaked_objects, 1,
            "bad frees leak for soundness"
        );

        let (r2, vm2) = run_src(src, "good_free", VmConfig::ccounted(false));
        r2.unwrap();
        assert_eq!(vm2.stats.frees_bad, 0);
        assert_eq!(vm2.stats.frees_good, 1);
        assert!(vm2.stats.rc_updates > 0);
    }

    #[test]
    fn ccount_delayed_free_scope_defers_check() {
        let src = r#"
            struct node { next: struct node *; payload: u32; }
            global head: struct node *;
            #[allocator]
            extern fn kmalloc(size: u32, flags: u32) -> void *;
            extern fn kfree(p: void *);
            fn cyclic_teardown() -> u32 {
                let a: struct node * = kmalloc(sizeof(struct node), 0) as struct node *;
                let b: struct node * = kmalloc(sizeof(struct node), 0) as struct node *;
                a->next = b;
                b->next = a;
                delayed_free {
                    kfree(a as void *);
                    kfree(b as void *);
                    a->next = null;
                    b->next = null;
                }
                return 0;
            }
        "#;
        let (r, vm) = run_src(src, "cyclic_teardown", VmConfig::ccounted(false));
        r.unwrap();
        assert_eq!(vm.stats.frees_delayed, 2);
        assert_eq!(vm.stats.frees_good, 2, "cycle broken before scope end");
        assert_eq!(vm.stats.frees_bad, 0);
    }

    #[test]
    fn smp_refcounting_costs_more_than_up() {
        let src = r#"
            struct holder { p: u8 *; }
            global slots: struct holder[32];
            #[allocator]
            extern fn kmalloc(size: u32, flags: u32) -> void *;
            fn churn() -> u32 {
                let buf: u8 * = kmalloc(64, 0) as u8 *;
                let i: u32 = 0;
                while (i < 32) {
                    slots[i].p = buf;
                    i = i + 1;
                }
                return 0;
            }
        "#;
        let (_, up) = run_src(src, "churn", VmConfig::ccounted(false));
        let (_, smp) = run_src(src, "churn", VmConfig::ccounted(true));
        assert!(smp.cycles() > up.cycles());
        assert_eq!(up.stats.rc_updates, smp.stats.rc_updates);
    }

    #[test]
    fn blocking_in_atomic_context_is_recorded() {
        let src = r#"
            extern fn local_irq_disable();
            extern fn local_irq_enable();
            #[blocking]
            fn might_sleep_kc() { }
            fn bad_path() -> u32 {
                local_irq_disable();
                might_sleep_kc();
                local_irq_enable();
                return 0;
            }
            fn good_path() -> u32 {
                might_sleep_kc();
                return 0;
            }
        "#;
        let (r, vm) = run_src(src, "bad_path", VmConfig::baseline());
        r.unwrap();
        assert_eq!(vm.stats.blocking_violations.len(), 1);
        assert_eq!(vm.stats.blocking_violations[0].callee, "might_sleep_kc");

        let (r2, vm2) = run_src(src, "good_path", VmConfig::baseline());
        r2.unwrap();
        assert!(vm2.stats.blocking_violations.is_empty());
    }

    #[test]
    fn assert_may_block_fires_only_with_irqs_off() {
        let src = r#"
            extern fn local_irq_disable();
            extern fn local_irq_enable();
            fn checked() -> u32 {
                __assert_may_block("read_chan");
                return 0;
            }
            fn bad() -> u32 {
                local_irq_disable();
                let r: u32 = checked();
                local_irq_enable();
                return r;
            }
        "#;
        let cfg = VmConfig {
            blockstop_asserts: true,
            ..VmConfig::baseline()
        };
        let (r, vm) = run_src(src, "checked", cfg);
        r.unwrap();
        assert_eq!(vm.stats.assert_failures, 0);
        let (r2, vm2) = run_src(src, "bad", cfg);
        r2.unwrap();
        assert_eq!(vm2.stats.assert_failures, 1);
    }

    #[test]
    fn union_tag_check() {
        let src = r#"
            struct packet {
                kind: u32;
                echo_id: u32 when(kind == 8);
                unreach_code: u32 when(kind == 3);
            }
            global pkt: struct packet;
            fn read_echo_checked() -> u32 {
                pkt.kind = 3;
                __check_union(pkt, echo_id, kind, 8);
                return pkt.echo_id;
            }
        "#;
        let (r, vm) = run_src(src, "read_echo_checked", VmConfig::deputized());
        r.unwrap();
        assert_eq!(vm.stats.check_failures.len(), 1);
        assert_eq!(vm.stats.check_failures[0].kind, "union_tag");
    }

    #[test]
    fn step_limit_stops_runaway_loops() {
        let src = "fn spin() { while (1) { } }";
        let p = parse_program(src).unwrap();
        let cfg = VmConfig {
            max_steps: 10_000,
            ..VmConfig::baseline()
        };
        let mut vm = Vm::new(p, cfg).unwrap();
        let err = vm.run("spin", vec![]).unwrap_err();
        assert_eq!(err.kind, TrapKind::StepLimit);
    }

    #[test]
    fn string_literals_and_strlen() {
        let src = r#"
            extern fn strlen(s: u8 * nullterm) -> u32;
            fn main() -> u32 { return strlen("hello"); }
        "#;
        let (r, _) = run_src(src, "main", VmConfig::baseline());
        assert_eq!(r.unwrap(), Value::Int(5));
    }

    #[test]
    fn trap_on_check_failure_mode() {
        let src = r#"
            fn f(p: u8 * nonnull) -> u32 {
                __check_nonnull(p);
                return 0;
            }
            fn main() -> u32 { return f(null as u8 *); }
        "#;
        let p = parse_program(src).unwrap();
        let cfg = VmConfig {
            deputy_checks: true,
            trap_on_check_failure: true,
            ..VmConfig::baseline()
        };
        let mut vm = Vm::new(p, cfg).unwrap();
        let err = vm.run("main", vec![]).unwrap_err();
        assert_eq!(err.kind, TrapKind::CheckFailure);
    }
}
