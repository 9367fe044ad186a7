//! The execution machine: interprets a compiled test program against the
//! simulated device, under the vendor's behavioural profile.
//!
//! ## Execution model
//!
//! Host code is interpreted statement by statement. A `parallel` region
//! executes its body once per gang, gangs in deterministic sequence
//! (gang-redundant mode); `loop` directives partition iterations across
//! gangs/workers/vector lanes per the vendor mapping. A `kernels` region
//! executes its body once, auto-parallelizing annotated loops. All data
//! clause semantics run against the discrete device memory: a host variable
//! and its device copy only synchronize at transfer points, so wrong-code
//! defects surface exactly the way the paper's tests observe them.
//!
//! ## Outcomes
//!
//! [`RunOutcome`] mirrors the paper's runtime-error classes (§V): a
//! completed run with the program's return value, a crash (bad device
//! address, `present` miss, pointer misuse, runtime-routine failure), or a
//! timeout (step budget exhausted — "the code executes forever").

use acc_ast::{
    AccClause, AccDirective, BinOp, Expr, ForLoop, Function, LValue, Name, ParamKind, Program,
    ScalarType, Stmt, Type, UnOp,
};
use acc_device::memory::ExitAction;
use acc_device::queue::AsyncTag;
use acc_device::{ArrayData, BufferId, Defect, ExecProfile, PresentEntry, Value, WorkerLoopPolicy};
use acc_frontend::{FrameLayout, ResolvedProgram};
use acc_runtime::routines::dispatch;
use acc_runtime::World;
use acc_spec::envvar::EnvConfig;
use acc_spec::{ClauseKind, DeviceType, DirectiveKind, FxHashMap, RuntimeRoutine};
use std::borrow::Cow;

use crate::driver::Executable;

/// How a run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The program ran to completion and `main` returned this value
    /// (1 = the test's pass convention).
    Completed(i64),
    /// A runtime crash with its message.
    Crash(String),
    /// The step budget was exhausted (simulated hang).
    Timeout,
}

impl RunOutcome {
    /// Did the run complete with a nonzero (pass) result?
    pub fn passed(&self) -> bool {
        matches!(self, RunOutcome::Completed(v) if *v != 0)
    }
}

/// Result of one program execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Outcome.
    pub outcome: RunOutcome,
    /// Device metrics.
    pub metrics: acc_device::Metrics,
}

/// Which execution engine runs the compiled program.
///
/// Both engines share every piece of machine state (frames, device memory,
/// clocks, fault draws) and must produce byte-identical results; the walker
/// is kept as the reference oracle behind `--exec-mode=walk`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// The register-based bytecode VM (default; see `bytecode`/`vm`).
    #[default]
    Vm,
    /// The original AST tree-walker, kept as the reference oracle.
    Walk,
}

impl ExecMode {
    /// Parse the engine as the CLI's `--exec-mode` and the server's
    /// `exec_mode` spell it (`vm` or `walk`).
    pub fn from_cli(s: &str) -> Result<ExecMode, String> {
        match s {
            "vm" => Ok(ExecMode::Vm),
            "walk" => Ok(ExecMode::Walk),
            _ => Err(format!("unknown exec mode `{s}` (vm|walk)")),
        }
    }
}

/// Per-run execution knobs the fault-tolerant executor threads through.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunKnobs {
    /// Override of the interpreter's step budget (`None` = the default
    /// 20M-step limit). The executor's watchdog shrinks this so hang-class
    /// defects classify as timeouts quickly.
    pub step_limit: Option<u64>,
    /// Which attempt this is (0 for the first run). Transient-fault draws
    /// mix this in so retries see fresh, but still deterministic, faults.
    pub run_index: u64,
    /// Which engine executes the program (bytecode VM by default).
    pub exec_mode: ExecMode,
    /// Memoize the run result on the executable, keyed by `(env, knobs)`.
    /// Execution is a pure function of those inputs (fault draws included —
    /// they are seeded by `run_index`, never by wall clock or scheduling),
    /// so campaign paths that re-execute a cached executable under identical
    /// knobs can reuse the result. Off by default so throughput benchmarks
    /// and one-shot runs still measure the engine; bypassed entirely while
    /// observability is recording so traces stay faithful.
    pub memo: bool,
}

/// A run-memo key: every input of a run besides the program, the profile
/// and the device, which select the memo itself (see
/// [`Executable::run_memo`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunKey {
    /// The step budget override.
    pub step_limit: Option<u64>,
    /// The attempt index.
    pub run_index: u64,
    /// The engine.
    pub exec_mode: ExecMode,
    /// The ACC_* environment.
    pub env: EnvConfig,
}

impl Executable {
    /// Run the program with an empty environment.
    pub fn run(&self) -> RunResult {
        self.run_with_env(&EnvConfig::empty())
    }

    /// Run the program honoring ACC_* environment variables.
    pub fn run_with_env(&self, env: &EnvConfig) -> RunResult {
        self.run_with_knobs(env, RunKnobs::default())
    }

    /// Run with explicit execution knobs (step budget, attempt index).
    ///
    /// When `knobs.memo` is set (and observability is not recording), the
    /// result is memoized keyed by the remaining inputs, a [`RunKey`] —
    /// sound because execution is a pure function of those inputs and
    /// what selects the memo (DESIGN.md §15.2).
    pub fn run_with_knobs(&self, env: &EnvConfig, knobs: RunKnobs) -> RunResult {
        if !knobs.memo || acc_obs::active() {
            return self.run_uncached(env, knobs);
        }
        let key = RunKey {
            step_limit: knobs.step_limit,
            run_index: knobs.run_index,
            exec_mode: knobs.exec_mode,
            env: env.clone(),
        };
        let hit = self
            .run_memo
            .lock()
            .expect("run memo poisoned")
            .get(&key)
            .cloned();
        if let Some(counters) = &self.counters {
            counters.record_memo(hit.is_some());
        }
        if let Some(hit) = hit {
            return hit;
        }
        let result = self.run_uncached(env, knobs);
        self.run_memo
            .lock()
            .expect("run memo poisoned")
            .insert(key, result.clone());
        result
    }

    fn run_uncached(&self, env: &EnvConfig, knobs: RunKnobs) -> RunResult {
        let mut m = Machine::new(
            &self.program,
            &self.resolved,
            &self.profile,
            self.concrete_device,
            env,
        );
        match knobs.exec_mode {
            ExecMode::Walk => {}
            ExecMode::Vm => {
                // The image's escapes reach nodes of the program it was
                // lowered from, which must be the one this run executes.
                debug_assert!(
                    std::sync::Arc::ptr_eq(self.code.program(), &self.program),
                    "an image run with another program"
                );
                m.code = Some(&self.code);
                m.use_vm = true;
            }
        }
        if let Some(limit) = knobs.step_limit {
            m.step_limit = limit;
        }
        m.run_index = knobs.run_index;
        let outcome = m.run_main();
        if acc_obs::active() {
            let met = &m.world.metrics;
            acc_obs::counter("kernel_launches", met.kernels_launched as i64);
            acc_obs::counter("memcpy_h2d_bytes", met.bytes_to_device as i64);
            acc_obs::counter("memcpy_d2h_bytes", met.bytes_to_host as i64);
            if m.use_vm {
                acc_obs::counter("vm_instructions", m.vm_instructions as i64);
            }
        }
        RunResult {
            outcome,
            metrics: m.world.metrics.clone(),
        }
    }
}

const DEFAULT_STEP_LIMIT: u64 = 20_000_000;

/// Abnormal termination signal threaded through the interpreter.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Abort {
    Crash(String),
    Timeout,
}

pub(crate) type Exec<T> = Result<T, Abort>;

/// Control flow result of executing statements.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Flow {
    Normal,
    Return(Value),
}

/// A host array (the arena makes pass-by-reference aliasing trivial).
#[derive(Debug)]
pub(crate) struct HostArray {
    pub(crate) data: ArrayData,
    pub(crate) dims: Vec<usize>,
}

/// What an array name is bound to in a frame.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ArrBinding {
    /// A host array in the arena.
    Host(usize),
    /// A device buffer (parameter bound through `host_data use_device` or a
    /// device pointer — models calling a device kernel).
    Device(BufferId),
}

/// One frame slot: the merged scalar/type/array binding of a resolved name.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Slot {
    pub(crate) val: Option<Value>,
    pub(crate) ty: Option<Type>,
    pub(crate) arr: Option<ArrBinding>,
}

/// A host call frame, backed by the function's [`FrameLayout`]: every name
/// the function can touch was assigned a dense slot index at compile time,
/// so reads and writes are vector accesses instead of `HashMap<String, _>`
/// operations cloning keys.
#[derive(Debug)]
pub(crate) struct Frame<'a> {
    layout: &'a FrameLayout,
    pub(crate) slots: Vec<Slot>,
    /// Present-table names entered by `declare`, exited at function return.
    declare_entries: Vec<Name>,
    /// `host_data use_device` overlays (innermost last).
    pub(crate) host_data: Vec<FxHashMap<Name, BufferId>>,
}

impl<'a> Frame<'a> {
    fn new(layout: &'a FrameLayout) -> Self {
        Frame {
            layout,
            slots: crate::arena::take_frame_slots(layout.len()),
            declare_entries: Vec::new(),
            host_data: Vec::new(),
        }
    }

    pub(crate) fn idx(&self, name: &str) -> Option<usize> {
        self.layout.slot(name)
    }

    fn val(&self, name: &str) -> Option<Value> {
        self.idx(name).and_then(|i| self.slots[i].val)
    }

    fn ty(&self, name: &str) -> Option<Type> {
        self.idx(name).and_then(|i| self.slots[i].ty)
    }

    fn arr(&self, name: &str) -> Option<ArrBinding> {
        self.idx(name).and_then(|i| self.slots[i].arr)
    }

    /// Write a scalar value; false when the name has no slot (a resolver
    /// gap — the caller escalates to an internal-error crash).
    #[must_use]
    fn set_val(&mut self, name: &str, v: Value) -> bool {
        match self.idx(name) {
            Some(i) => {
                self.slots[i].val = Some(v);
                true
            }
            None => false,
        }
    }

    #[must_use]
    fn set_arr(&mut self, name: &str, b: ArrBinding) -> bool {
        match self.idx(name) {
            Some(i) => {
                self.slots[i].arr = Some(b);
                true
            }
            None => false,
        }
    }
}

/// Device execution context for one gang.
///
/// Bindings live in a flat slot vector indexed by the same [`FrameLayout`]
/// as the host frame. Scope nesting is modeled with an ownership depth per
/// slot plus a per-scope undo journal: entering a scope is free, a first
/// write inside a scope journals the shadowed binding, and popping the
/// scope replays the journal — so the hot per-iteration writes are plain
/// vector stores.
#[derive(Debug)]
pub(crate) struct DevCtx<'m> {
    num_gangs: u32,
    num_workers: u32,
    vector_len: u32,
    gang: u32,
    /// Inside a gang-partitioned loop body.
    in_gang_loop: bool,
    /// `kernels` region (body runs once; loops auto-partition).
    kernels_mode: bool,
    layout: &'m FrameLayout,
    /// Current visible binding per slot (`None` = unbound).
    slots: Vec<Option<Value>>,
    /// Scope depth owning each slot's current binding (0 = gang scope).
    owner: Vec<u32>,
    /// Undo journal of the open scopes (gang scope 0 has none): the
    /// shadowed `(slot, value, owner)` to restore on pop, innermost scope
    /// last.
    journal: Vec<(u32, Option<Value>, u32)>,
    /// Where each open scope's entries start in `journal`; its length is
    /// the scope depth.
    scope_starts: Vec<usize>,
    /// Names bound by a `deviceptr` clause to device buffers (borrowed from
    /// the region — one map shared by all gangs).
    pub(crate) devptr: &'m FxHashMap<Name, BufferId>,
}

impl<'m> DevCtx<'m> {
    /// A fresh gang-scope context, as constructed once per gang by the
    /// gang loop.
    pub(crate) fn for_gang(
        num_gangs: u32,
        num_workers: u32,
        vector_len: u32,
        gang: u32,
        kernels_mode: bool,
        layout: &'m FrameLayout,
        devptr: &'m FxHashMap<Name, BufferId>,
    ) -> DevCtx<'m> {
        DevCtx {
            num_gangs,
            num_workers,
            vector_len,
            gang,
            in_gang_loop: false,
            kernels_mode,
            layout,
            slots: crate::arena::take_slots(layout.len()),
            owner: crate::arena::take_owners(layout.len()),
            journal: Vec::new(),
            scope_starts: Vec::new(),
            devptr,
        }
    }

    /// Resolve a name to its frame-layout slot.
    pub(crate) fn slot(&self, name: &str) -> Option<usize> {
        self.layout.slot(name)
    }

    #[inline]
    pub(crate) fn value(&self, slot: usize) -> Option<Value> {
        self.slots[slot]
    }

    /// Write the visible binding if one exists (wherever it lives —
    /// ownership is unchanged, matching write-where-found semantics).
    pub(crate) fn assign_existing(&mut self, slot: usize, v: Value) -> bool {
        match &mut self.slots[slot] {
            Some(b) => {
                *b = v;
                true
            }
            None => false,
        }
    }

    /// Bind in the innermost scope, shadowing (and journaling) any outer
    /// binding on the first write per scope.
    #[inline]
    pub(crate) fn set_local(&mut self, slot: usize, v: Value) {
        let depth = self.scope_starts.len() as u32;
        if depth > 0 && self.owner[slot] != depth {
            self.journal
                .push((slot as u32, self.slots[slot], self.owner[slot]));
            self.owner[slot] = depth;
        }
        self.slots[slot] = Some(v);
    }

    /// Bind directly in the gang scope (depth 0) — used for region-entry
    /// setup and implicit firstprivate snapshots, which persist across
    /// inner scope pops. Only sound for slots currently owned by the gang
    /// scope (region setup runs before any scope is pushed; implicit
    /// binds only happen on unbound slots, which are gang-owned).
    pub(crate) fn bind_gang(&mut self, slot: usize, v: Value) {
        debug_assert_eq!(self.owner[slot], 0, "bind_gang on a shadowed slot");
        self.slots[slot] = Some(v);
    }

    fn push_scope(&mut self) {
        self.scope_starts.push(self.journal.len());
    }

    fn pop_scope(&mut self) {
        let start = self.scope_starts.pop().expect("pop without open scope");
        for (slot, old_val, old_owner) in self.journal.drain(start..).rev() {
            self.slots[slot as usize] = old_val;
            self.owner[slot as usize] = old_owner;
        }
    }
}

impl Drop for DevCtx<'_> {
    fn drop(&mut self) {
        crate::arena::give_slots(std::mem::take(&mut self.slots));
        crate::arena::give_owners(std::mem::take(&mut self.owner));
    }
}

/// A deferred host-visible effect of an async activity.
#[derive(Debug)]
enum DeferredEffect {
    Download {
        buf: BufferId,
        dest: usize,
        start: usize,
        len: usize,
    },
    ScalarDownload {
        buf: BufferId,
        frame: usize,
        name: Name,
    },
    Free(BufferId),
}

/// The machine.
pub(crate) struct Machine<'a> {
    prog: &'a Program,
    resolved: &'a ResolvedProgram,
    pub(crate) profile: &'a ExecProfile,
    pub(crate) world: World,
    pub(crate) host_arrays: Vec<HostArray>,
    pub(crate) frames: Vec<Frame<'a>>,
    deferred: Vec<Vec<DeferredEffect>>,
    pub(crate) steps: u64,
    pub(crate) step_limit: u64,
    /// Attempt number (0-based) — input to transient-fault draws.
    run_index: u64,
    /// Monotone counter of transient-fault decision points this run.
    fault_event: u64,
    /// FNV hash of the program name, fixed per program.
    program_hash: u64,
    garbage_counter: i64,
    /// Count of device statements in the current region (kernel cost).
    pub(crate) region_cost: u64,
    /// `deviceptr` bindings contributed by enclosing `data` regions and
    /// inherited by nested compute constructs.
    data_devptr: Vec<FxHashMap<Name, BufferId>>,
    /// The lowered bytecode image (present when running under the VM).
    pub(crate) code: Option<&'a crate::bytecode::BytecodeProgram>,
    /// Dispatch through the bytecode VM instead of the tree walker.
    pub(crate) use_vm: bool,
    /// Bytecode instructions retired this run (VM engine only; telemetry).
    /// Lives on the machine, NOT in [`acc_device::Metrics`], because the
    /// walker/VM engine-equivalence invariant compares `Metrics` verbatim.
    pub(crate) vm_instructions: u64,
    /// Scratch register files recycled across chunk activations.
    pub(crate) reg_pool: Vec<Vec<Value>>,
    /// Per-device-chunk cache of name-id → resolved buffer (the present
    /// table cannot change while device code runs, so the VM resolves each
    /// array once per chunk activation instead of per element access).
    pub(crate) dev_bufs: Vec<Option<BufferId>>,
}

impl<'a> Machine<'a> {
    pub(crate) fn new(
        prog: &'a Program,
        resolved: &'a ResolvedProgram,
        profile: &'a ExecProfile,
        concrete: DeviceType,
        env: &EnvConfig,
    ) -> Self {
        Machine {
            prog,
            resolved,
            profile,
            world: World::new(concrete, env),
            host_arrays: Vec::new(),
            frames: Vec::new(),
            deferred: Vec::new(),
            steps: 0,
            step_limit: DEFAULT_STEP_LIMIT,
            run_index: 0,
            fault_event: 0,
            program_hash: acc_device::profile::stable_name_hash(&prog.name),
            garbage_counter: 0,
            region_cost: 0,
            data_devptr: Vec::new(),
            code: None,
            use_vm: false,
            vm_instructions: 0,
            reg_pool: Vec::new(),
            dev_bufs: Vec::new(),
        }
    }

    /// Return this run's register files to the thread-local arena so the
    /// next machine on this thread starts with warm capacity.
    fn drain_reg_pool(&mut self) {
        for regs in self.reg_pool.drain(..) {
            crate::arena::give_regs(regs);
        }
    }

    pub(crate) fn run_main(&mut self) -> RunOutcome {
        let main = match self.prog.entry() {
            Some(f) => f,
            None => return RunOutcome::Crash("program has no main function".into()),
        };
        match self.call_function(main, Vec::new(), Vec::new()) {
            Ok(v) => match v.as_int() {
                Ok(i) => RunOutcome::Completed(i),
                Err(e) => RunOutcome::Crash(e.to_string()),
            },
            Err(Abort::Crash(m)) => RunOutcome::Crash(m),
            Err(Abort::Timeout) => RunOutcome::Timeout,
        }
    }

    /// Draw one transient-fault decision for the defect selected by
    /// `pick` out of the active profile. Deterministic: the decision is a
    /// pure function of the defect seed, the program name, the attempt
    /// index, and a per-run event counter — never of thread scheduling.
    fn transient_fires(&mut self, pick: fn(&Defect) -> Option<(u8, u64)>) -> bool {
        let params = self.profile.defects().find_map(pick);
        let Some((rate_pct, seed)) = params else {
            return false;
        };
        let event = self.fault_event;
        self.fault_event += 1;
        acc_device::profile::transient_fault_fires(
            rate_pct,
            seed,
            self.program_hash,
            self.run_index,
            event,
        )
    }

    fn transient_memcpy_fires(&mut self) -> bool {
        let fired = self.transient_fires(|d| match d {
            Defect::TransientMemcpyFault { rate_pct, seed } => Some((*rate_pct, *seed)),
            _ => None,
        });
        if fired {
            // Logical: the draw is a pure function of (seed, program,
            // run index, event counter) — schedule-independent.
            acc_obs::instant("fault", "transient_memcpy", vec![]);
        }
        fired
    }

    fn transient_stall_fires(&mut self) -> bool {
        let fired = self.transient_fires(|d| match d {
            Defect::IntermittentAsyncStall { rate_pct, seed } => Some((*rate_pct, *seed)),
            _ => None,
        });
        if fired {
            acc_obs::instant("fault", "async_stall", vec![]);
        }
        fired
    }

    #[inline]
    pub(crate) fn tick(&mut self) -> Exec<()> {
        self.steps += 1;
        self.world.metrics.statements_executed += 1;
        if self.steps > self.step_limit {
            return Err(Abort::Timeout);
        }
        Ok(())
    }

    pub(crate) fn garbage_value(&mut self, ty: ScalarType) -> Value {
        self.garbage_counter += 1;
        match ty {
            ScalarType::Int => Value::Int(-987_654_321 - self.garbage_counter),
            ScalarType::Float => Value::F32(-1.0e30 - self.garbage_counter as f32),
            ScalarType::Double => Value::F64(-1.0e300 - self.garbage_counter as f64),
        }
    }

    #[inline]
    pub(crate) fn frame(&self) -> &Frame<'a> {
        self.frames.last().expect("no active frame")
    }

    #[inline]
    pub(crate) fn frame_mut(&mut self) -> &mut Frame<'a> {
        self.frames.last_mut().expect("no active frame")
    }

    /// The bytecode image, which every VM run sets before lowered code
    /// runs.
    pub(crate) fn image(&self) -> &'a crate::bytecode::BytecodeProgram {
        self.code.expect("lowered code runs without its image")
    }

    /// The current frame's layout, projected at the machine's lifetime (the
    /// layout lives in the executable, not the frame).
    fn cur_layout(&self) -> &'a FrameLayout {
        self.frame().layout
    }

    fn set_var(&mut self, name: &str, v: Value) -> Exec<()> {
        if self.frame_mut().set_val(name, v) {
            Ok(())
        } else {
            Err(unresolved(name))
        }
    }

    // ------------------------------------------------------------------
    // Function calls
    // ------------------------------------------------------------------

    /// Call a user function with already-evaluated scalar args / array
    /// bindings (positional, aligned with params).
    fn call_function(
        &mut self,
        f: &'a Function,
        scalar_args: Vec<(Name, Value)>,
        array_args: Vec<(Name, ArrBinding)>,
    ) -> Exec<Value> {
        if self.frames.len() > 64 {
            return Err(Abort::Crash("call stack overflow".into()));
        }
        let layout = self
            .resolved
            .layout(&f.name)
            .ok_or_else(|| unresolved(&f.name))?;
        let mut frame = Frame::new(layout);
        for (n, v) in scalar_args {
            if !frame.set_val(&n, v) {
                return Err(unresolved(&n));
            }
        }
        for (n, b) in array_args {
            if !frame.set_arr(&n, b) {
                return Err(unresolved(&n));
            }
        }
        self.frames.push(frame);
        let flow = if self.use_vm {
            self.vm_function(&f.name)
        } else {
            self.exec_body(&f.body, None)
        };
        // Exit any `declare` data regions opened by this frame.
        let declare_entries = std::mem::take(&mut self.frame_mut().declare_entries);
        let mut declare_result = Ok(());
        for name in declare_entries.into_iter().rev() {
            if let Err(e) = self.exit_mapping(&name, false) {
                declare_result = Err(e);
                break;
            }
        }
        if let Some(f) = self.frames.pop() {
            crate::arena::give_frame_slots(f.slots);
        }
        let flow = flow?;
        declare_result?;
        Ok(match flow {
            Flow::Return(v) => v,
            Flow::Normal => Value::Int(0),
        })
    }

    /// Resolve a call argument for an ArrayPtr parameter.
    fn array_arg_binding(&mut self, e: &Expr) -> Exec<ArrBinding> {
        match e {
            Expr::Var(n) => {
                // host_data overlay first: the name denotes a device pointer.
                if let Some(buf) = self.host_data_lookup(n) {
                    return Ok(ArrBinding::Device(buf));
                }
                if let Some(b) = self.frame().arr(n) {
                    return Ok(b);
                }
                // A pointer-typed scalar holding a device address.
                if let Some(Value::DevPtr(buf)) = self.frame().val(n) {
                    return Ok(ArrBinding::Device(buf));
                }
                Err(Abort::Crash(format!(
                    "`{n}` is not an array or device pointer"
                )))
            }
            other => {
                let v = self.eval_host(other)?;
                match v {
                    Value::DevPtr(buf) => Ok(ArrBinding::Device(buf)),
                    _ => Err(Abort::Crash(
                        "array argument must be an array name or device pointer".into(),
                    )),
                }
            }
        }
    }

    pub(crate) fn host_data_lookup(&self, name: &str) -> Option<BufferId> {
        self.frame()
            .host_data
            .iter()
            .rev()
            .find_map(|m| m.get(name).copied())
    }

    fn call_user_or_runtime(
        &mut self,
        name: &str,
        args: &[Expr],
        on_device: bool,
        malloc_elem: ScalarType,
    ) -> Exec<Value> {
        // Runtime library.
        if let Some(r) = RuntimeRoutine::from_symbol(name) {
            return self.call_runtime(r, args, on_device, malloc_elem);
        }
        // Math intrinsics.
        if let Some(v) = self.try_intrinsic(name, args, on_device)? {
            return Ok(v);
        }
        // User function.
        let f = match self.prog.function(name) {
            Some(f) => f,
            None => return Err(Abort::Crash(format!("call to undefined function `{name}`"))),
        };
        if on_device {
            // OpenACC 1.0 has no `routine` directive; procedure calls inside
            // compute regions are unsupported (§V-C "Procedure calls").
            return Err(Abort::Crash(format!(
                "procedure call `{name}` inside a compute region is not supported by OpenACC 1.0"
            )));
        }
        if args.len() != f.params.len() {
            return Err(Abort::Crash(format!(
                "`{name}` expects {} arguments, got {}",
                f.params.len(),
                args.len()
            )));
        }
        let mut scalars = Vec::new();
        let mut arrays = Vec::new();
        for (p, a) in f.params.iter().zip(args) {
            match p.kind {
                ParamKind::Scalar(ty) => {
                    let v = self.eval_host(a)?.convert_to(ty).map_err(crash)?;
                    scalars.push((p.name.clone(), v));
                }
                ParamKind::ArrayPtr(_) => {
                    arrays.push((p.name.clone(), self.array_arg_binding(a)?));
                }
            }
        }
        self.call_function(f, scalars, arrays)
    }

    fn call_runtime(
        &mut self,
        r: RuntimeRoutine,
        args: &[Expr],
        on_device: bool,
        malloc_elem: ScalarType,
    ) -> Exec<Value> {
        // Defect overrides first.
        if let Some(c) = self.profile.routine_override(r) {
            // Still evaluate args for side effects / crashes.
            for a in args {
                self.eval_host(a)?;
            }
            return Ok(Value::Int(c));
        }
        if self.profile.has(&Defect::AsyncFamilyBroken) && r.is_async_family() {
            for a in args {
                self.eval_host(a)?;
            }
            return Ok(match r {
                RuntimeRoutine::AsyncTest | RuntimeRoutine::AsyncTestAll => Value::Int(-1),
                _ => Value::Int(0), // waits silently do nothing
            });
        }
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval_host(a)?);
        }
        let (v, due) = dispatch(r, &vals, &mut self.world, on_device, malloc_elem)
            .map_err(|e| Abort::Crash(e.to_string()))?;
        self.apply_deferred(due)?;
        Ok(v)
    }

    fn try_intrinsic(&mut self, name: &str, args: &[Expr], on_device: bool) -> Exec<Option<Value>> {
        let bin = |m: &mut Self, args: &[Expr], f: fn(f64, f64) -> f64| -> Exec<Value> {
            let a = m.eval_in(args.first(), on_device)?;
            let b = m.eval_in(args.get(1), on_device)?;
            Ok(Value::F64(f(
                a.as_f64().map_err(crash)?,
                b.as_f64().map_err(crash)?,
            )))
        };
        let v = match name {
            "powf" => Some(
                bin(self, args, f64::powf)?
                    .convert_to(ScalarType::Float)
                    .map_err(crash)?,
            ),
            "pow" => Some(bin(self, args, f64::powf)?),
            "fabsf" => {
                let a = self.eval_in(args.first(), on_device)?;
                Some(Value::F32(a.as_f64().map_err(crash)?.abs() as f32))
            }
            "fabs" => {
                let a = self.eval_in(args.first(), on_device)?;
                Some(Value::F64(a.as_f64().map_err(crash)?.abs()))
            }
            "sqrtf" => {
                let a = self.eval_in(args.first(), on_device)?;
                Some(Value::F32(a.as_f64().map_err(crash)?.sqrt() as f32))
            }
            "sqrt" => {
                let a = self.eval_in(args.first(), on_device)?;
                Some(Value::F64(a.as_f64().map_err(crash)?.sqrt()))
            }
            "abs" => {
                let a = self.eval_in(args.first(), on_device)?;
                Some(Value::Int(a.as_int().map_err(crash)?.wrapping_abs()))
            }
            "mod" => {
                let a = self
                    .eval_in(args.first(), on_device)?
                    .as_int()
                    .map_err(crash)?;
                let b = self
                    .eval_in(args.get(1), on_device)?
                    .as_int()
                    .map_err(crash)?;
                Some(int_mod(a, b)?)
            }
            "iand" => Some(self.int_bin(args, on_device, |a, b| a & b)?),
            "ior" => Some(self.int_bin(args, on_device, |a, b| a | b)?),
            "ieor" => Some(self.int_bin(args, on_device, |a, b| a ^ b)?),
            "min" => {
                let a = self.eval_in(args.first(), on_device)?;
                let b = self.eval_in(args.get(1), on_device)?;
                Some(num_min_max(a, b, true).map_err(crash)?)
            }
            "max" => {
                let a = self.eval_in(args.first(), on_device)?;
                let b = self.eval_in(args.get(1), on_device)?;
                Some(num_min_max(a, b, false).map_err(crash)?)
            }
            "malloc" => {
                // Host malloc is not modeled; tests use declared arrays.
                return Err(Abort::Crash(
                    "host malloc is not supported by the machine".into(),
                ));
            }
            _ => None,
        };
        Ok(v)
    }

    fn int_bin(&mut self, args: &[Expr], on_device: bool, f: fn(i64, i64) -> i64) -> Exec<Value> {
        let a = self
            .eval_in(args.first(), on_device)?
            .as_int()
            .map_err(crash)?;
        let b = self
            .eval_in(args.get(1), on_device)?
            .as_int()
            .map_err(crash)?;
        Ok(Value::Int(f(a, b)))
    }

    fn eval_in(&mut self, e: Option<&Expr>, _on_device: bool) -> Exec<Value> {
        // Intrinsic argument evaluation happens in host context here; device
        // contexts evaluate their arguments before calling intrinsics. The
        // corpus keeps intrinsic calls on host expressions and in reduction
        // kernels where arguments are loop-local scalars, so host resolution
        // with the current frame suffices. Device-side calls are routed
        // through eval_device instead.
        match e {
            Some(e) => self.eval_host(e),
            None => Err(Abort::Crash(
                "intrinsic called with too few arguments".into(),
            )),
        }
    }

    // ------------------------------------------------------------------
    // Host execution
    // ------------------------------------------------------------------

    fn exec_body(&mut self, body: &'a [Stmt], mut dev: Option<&mut DevCtx>) -> Exec<Flow> {
        for s in body {
            let flow = match dev.as_deref_mut() {
                Some(ctx) => self.exec_stmt_device(s, ctx)?,
                None => self.exec_stmt_host(s)?,
            };
            if let Flow::Return(v) = flow {
                return Ok(Flow::Return(v));
            }
        }
        Ok(Flow::Normal)
    }

    pub(crate) fn exec_stmt_host(&mut self, s: &'a Stmt) -> Exec<Flow> {
        self.tick()?;
        self.world.clock.advance(1);
        match s {
            Stmt::DeclScalar { name, ty, init } => {
                let v = match init {
                    Some(e) => {
                        let hint = ty.scalar();
                        let raw = self.eval_host_with_hint(e, hint)?;
                        match ty {
                            Type::Ptr(_) => raw, // keep DevPtr / null int
                            Type::Scalar(t) => raw.convert_to(*t).map_err(crash)?,
                        }
                    }
                    None => self.garbage_value(ty.scalar()),
                };
                let f = self.frame_mut();
                match f.idx(name) {
                    Some(i) => {
                        f.slots[i].val = Some(v);
                        f.slots[i].ty = Some(*ty);
                    }
                    None => return Err(unresolved(name)),
                }
                Ok(Flow::Normal)
            }
            Stmt::DeclArray { name, elem, dims } => {
                let id = self.host_arrays.len();
                // C/Fortran locals are uninitialized; model with the host
                // garbage pattern so tests that forget to initialize fail
                // loudly rather than silently seeing zeros.
                self.garbage_counter += 1;
                let data = ArrayData::garbage(
                    *elem,
                    dims.iter().product::<usize>().max(1),
                    self.garbage_counter as u64,
                );
                self.host_arrays.push(HostArray {
                    data,
                    dims: dims.clone(),
                });
                if !self.frame_mut().set_arr(name, ArrBinding::Host(id)) {
                    return Err(unresolved(name));
                }
                Ok(Flow::Normal)
            }
            Stmt::Assign { target, op, value } => {
                let hint = self.lvalue_hint(target);
                let rhs = self.eval_host_with_hint(value, hint)?;
                let newv = match op {
                    None => rhs,
                    Some(op) => {
                        let old = self.read_lvalue_host(target)?;
                        apply_binop(*op, old, rhs).map_err(crash)?
                    }
                };
                self.write_lvalue_host(target, newv)?;
                Ok(Flow::Normal)
            }
            Stmt::For(l) => self.exec_for_host(l),
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.eval_host(cond)?;
                if c.truthy() {
                    self.exec_body(then_body, None)
                } else {
                    self.exec_body(else_body, None)
                }
            }
            Stmt::Call { name, args } => {
                self.call_user_or_runtime(name, args, false, ScalarType::Float)?;
                Ok(Flow::Normal)
            }
            Stmt::Return(e) => {
                let v = self.eval_host(e)?;
                Ok(Flow::Return(v))
            }
            Stmt::AccBlock { dir, body } => {
                self.exec_acc_block(dir, body)?;
                Ok(Flow::Normal)
            }
            Stmt::AccLoop { dir, l } => {
                self.exec_acc_loop_toplevel(dir, l)?;
                Ok(Flow::Normal)
            }
            Stmt::AccStandalone { dir } => {
                self.exec_standalone(dir)?;
                Ok(Flow::Normal)
            }
        }
    }

    fn exec_for_host(&mut self, l: &'a ForLoop) -> Exec<Flow> {
        let from = self.eval_host(&l.from)?.as_int().map_err(crash)?;
        let step = self.eval_host(&l.step)?.as_int().map_err(crash)?;
        if step <= 0 {
            return Err(Abort::Crash(format!(
                "loop step must be positive, got {step}"
            )));
        }
        // The induction variable's slot is fixed: resolve it once, write by
        // index every iteration (no key hash, no `String` clone).
        let var_slot = self.frame().idx(&l.var).ok_or_else(|| unresolved(&l.var))?;
        let mut i = from;
        loop {
            // C semantics: the condition re-evaluates every iteration (a
            // body that keeps moving the bound loops forever — and trips the
            // machine's step budget, the simulated hang).
            self.tick()?;
            let to = self.eval_host(&l.to)?.as_int().map_err(crash)?;
            if i >= to {
                break;
            }
            self.frame_mut().slots[var_slot].val = Some(Value::Int(i));
            let flow = self.exec_body(&l.body, None)?;
            if let Flow::Return(v) = flow {
                return Ok(Flow::Return(v));
            }
            // Wraps like the VM's `Binop Add` at the loop's foot.
            i = i.wrapping_add(step);
        }
        Ok(Flow::Normal)
    }

    fn lvalue_hint(&self, lv: &LValue) -> ScalarType {
        match lv {
            LValue::Var(n) => self
                .frame()
                .ty(n)
                .map(|t| t.scalar())
                .unwrap_or(ScalarType::Float),
            LValue::Index { .. } => ScalarType::Float,
        }
    }

    fn read_lvalue_host(&mut self, lv: &LValue) -> Exec<Value> {
        match lv {
            LValue::Var(n) => self.read_var_host(n),
            LValue::Index { base, indices } => {
                let (binding, i) = self.flat_index_host(base, indices)?;
                match binding {
                    ArrBinding::Host(id) => self.host_arrays[id].data.get(i).ok_or_else(|| {
                        Abort::Crash(format!("host read out of bounds: {base}[{i}]"))
                    }),
                    ArrBinding::Device(buf) => self
                        .world
                        .mem
                        .read(buf, i)
                        .map_err(|e| Abort::Crash(e.to_string())),
                }
            }
        }
    }

    fn read_var_host(&mut self, n: &Name) -> Exec<Value> {
        self.read_var_host_at(n, self.frame().idx(n))
    }

    /// [`Self::read_var_host`] with the slot pre-resolved at compile time
    /// (the VM's fast path — same lookup order, no name hashing). With no
    /// `host_data` overlay open, as in most code, the slot answers first.
    #[inline(always)]
    pub(crate) fn read_var_host_at(&mut self, n: &Name, slot: Option<usize>) -> Exec<Value> {
        let f = self.frame();
        if f.host_data.is_empty() {
            if let Some(v) = slot.and_then(|i| f.slots[i].val) {
                return Ok(v);
            }
        }
        self.read_var_host_general(n, slot)
    }

    /// The full lookup order: `host_data` overlays, the slot, then the
    /// named device constants.
    fn read_var_host_general(&mut self, n: &str, slot: Option<usize>) -> Exec<Value> {
        if let Some(buf) = self.host_data_lookup(n) {
            return Ok(Value::DevPtr(buf));
        }
        if let Some(v) = slot.and_then(|i| self.frame().slots[i].val) {
            return Ok(v);
        }
        if let Some(v) = device_constant(n) {
            return Ok(v);
        }
        Err(Abort::Crash(format!("read of undefined variable `{n}`")))
    }

    /// Scalar store with the slot pre-resolved: converts through the
    /// declared type exactly like [`Self::write_lvalue_host`]'s `Var` arm.
    pub(crate) fn write_var_host_at(
        &mut self,
        n: &Name,
        slot: Option<usize>,
        v: Value,
    ) -> Exec<()> {
        let Some(i) = slot else {
            return Err(unresolved(n));
        };
        let converted = match self.frame().slots[i].ty {
            Some(Type::Scalar(t)) => v.convert_to(t).map_err(crash)?,
            _ => v,
        };
        self.frame_mut().slots[i].val = Some(converted);
        Ok(())
    }

    fn write_lvalue_host(&mut self, lv: &LValue, v: Value) -> Exec<()> {
        match lv {
            LValue::Var(n) => {
                // Writing through declared type conversion.
                let converted = match self.frame().ty(n) {
                    Some(Type::Scalar(t)) => v.convert_to(t).map_err(crash)?,
                    _ => v,
                };
                self.set_var(n, converted)
            }
            LValue::Index { base, indices } => {
                let flat = self.flat_index_host(base, indices)?;
                match flat {
                    (ArrBinding::Host(id), i) => {
                        let arr = &mut self.host_arrays[id];
                        if !arr.data.set(i, v).map_err(crash)? {
                            return Err(Abort::Crash(format!(
                                "host write out of bounds: {base}[{i}]"
                            )));
                        }
                        Ok(())
                    }
                    (ArrBinding::Device(buf), i) => {
                        // Host code writing through a device binding models a
                        // device-side helper routine (host_data call).
                        self.world
                            .mem
                            .write(buf, i, v)
                            .map_err(|e| Abort::Crash(e.to_string()))
                    }
                }
            }
        }
    }

    /// Resolve an index expression on the host: the binding plus the flat
    /// element offset (multi-dim row-major).
    fn flat_index_host(&mut self, base: &Name, indices: &[Expr]) -> Exec<(ArrBinding, usize)> {
        with_stack_list(indices.len(), 0, |vals| {
            for (v, e) in vals.iter_mut().zip(indices) {
                *v = self.eval_host(e)?.as_int().map_err(crash)?;
            }
            let binding = self.lookup_array_host(base)?;
            let dims = match binding {
                ArrBinding::Host(id) => &self.host_arrays[id].dims,
                ArrBinding::Device(buf) => {
                    &self
                        .world
                        .mem
                        .get(buf)
                        .map_err(|e| Abort::Crash(e.to_string()))?
                        .dims
                }
            };
            let flat = flatten(base, vals, dims)?;
            Ok((binding, flat))
        })
    }

    fn lookup_array_host(&mut self, base: &str) -> Exec<ArrBinding> {
        if let Some(b) = self.frame().arr(base) {
            return Ok(b);
        }
        // A pointer variable holding a device address: dereferencing on the
        // host is a crash (models a segfault), EXCEPT when bound through
        // host_data (handled by array bindings in callee frames).
        if let Some(Value::DevPtr(_)) = self.frame().val(base) {
            return Err(Abort::Crash(format!(
                "host dereference of device pointer `{base}` (segmentation fault)"
            )));
        }
        Err(Abort::Crash(format!("`{base}` is not an array")))
    }

    fn eval_host(&mut self, e: &Expr) -> Exec<Value> {
        self.eval_host_with_hint(e, ScalarType::Float)
    }

    pub(crate) fn eval_host_with_hint(&mut self, e: &Expr, malloc_hint: ScalarType) -> Exec<Value> {
        match e {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Real(v, t) => Ok(match t {
                ScalarType::Float => Value::F32(*v as f32),
                _ => Value::F64(*v),
            }),
            Expr::Var(n) => self.read_var_host(n),
            Expr::Index { base, indices } => {
                let (binding, i) = self.flat_index_host(base, indices)?;
                match binding {
                    ArrBinding::Host(id) => self.host_arrays[id].data.get(i).ok_or_else(|| {
                        Abort::Crash(format!("host read out of bounds: {base}[{i}]"))
                    }),
                    ArrBinding::Device(buf) => self
                        .world
                        .mem
                        .read(buf, i)
                        .map_err(|e| Abort::Crash(e.to_string())),
                }
            }
            Expr::Unary(op, inner) => {
                let v = self.eval_host_with_hint(inner, malloc_hint)?;
                apply_unop(*op, v).map_err(crash)
            }
            Expr::Binary(op, l, r) => {
                let a = self.eval_host_with_hint(l, malloc_hint)?;
                // Short-circuit evaluation.
                if *op == BinOp::And && !a.truthy() {
                    return Ok(Value::Int(0));
                }
                if *op == BinOp::Or && a.truthy() {
                    return Ok(Value::Int(1));
                }
                let b = self.eval_host_with_hint(r, malloc_hint)?;
                apply_binop(*op, a, b).map_err(crash)
            }
            Expr::Call { name, args } => self.call_user_or_runtime(name, args, false, malloc_hint),
            Expr::SizeOf(t) => Ok(Value::Int(t.size_bytes() as i64)),
        }
    }

    // ------------------------------------------------------------------
    // Directive execution (host level)
    // ------------------------------------------------------------------

    pub(crate) fn exec_standalone(&mut self, dir: &'a AccDirective) -> Exec<()> {
        match dir.kind {
            DirectiveKind::Update => self.exec_update(dir),
            DirectiveKind::Wait => {
                if self.profile.has(&Defect::AsyncFamilyBroken)
                    || self.profile.ignores_directive(DirectiveKind::Wait)
                {
                    return Ok(());
                }
                if self.transient_stall_fires() {
                    // The wait never returns: an intermittent queue stall,
                    // observed exactly as the "executes forever" class.
                    return Err(Abort::Timeout);
                }
                match &dir.wait_arg {
                    Some(e) => {
                        let tag = AsyncTag::Numbered(self.eval_host(e)?.as_int().map_err(crash)?);
                        if let Some(t) = self.world.queues.tag_completion(tag) {
                            self.world.clock.advance_to(t);
                        }
                        let due = self
                            .world
                            .queues
                            .drain_complete(tag, self.world.clock.now());
                        self.apply_deferred(due)
                    }
                    None => {
                        if let Some(t) = self.world.queues.all_completion() {
                            self.world.clock.advance_to(t);
                        }
                        let due = self.world.queues.drain_all_complete(self.world.clock.now());
                        self.apply_deferred(due)
                    }
                }
            }
            DirectiveKind::Declare => {
                if self.profile.ignores_directive(DirectiveKind::Declare) {
                    return Ok(());
                }
                let entered = self.enter_data_clauses(&dir.clauses, DirectiveKind::Declare)?;
                self.frame_mut().declare_entries.extend(entered);
                Ok(())
            }
            DirectiveKind::Cache => Ok(()), // performance hint only
            DirectiveKind::EnterData | DirectiveKind::ExitData | DirectiveKind::Routine => {
                Err(Abort::Crash(format!(
                    "`{}` is OpenACC 2.0 syntax; this machine executes 1.0 programs",
                    dir.kind.name()
                )))
            }
            other => Err(Abort::Crash(format!(
                "`{}` is not a standalone directive",
                other.name()
            ))),
        }
    }

    fn exec_update(&mut self, dir: &'a AccDirective) -> Exec<()> {
        if self.profile.ignores_directive(DirectiveKind::Update)
            || self.profile.has(&Defect::UpdateNoop)
        {
            return Ok(());
        }
        if !self
            .profile
            .ignores_clause(DirectiveKind::Update, ClauseKind::If)
        {
            if let Some(AccClause::If(e)) = dir.find(ClauseKind::If) {
                if !self.eval_host(e)?.truthy() {
                    return Ok(());
                }
            }
        }
        let is_async = dir.find(ClauseKind::Async).is_some()
            && !self
                .profile
                .ignores_clause(DirectiveKind::Update, ClauseKind::Async);
        let mut effects = Vec::new();
        let mut cost = 1u64;
        for c in &dir.clauses {
            let (to_host, refs) = match c {
                AccClause::Data(ClauseKind::HostClause, refs) => (true, refs),
                AccClause::Data(ClauseKind::DeviceClause, refs) => (false, refs),
                _ => continue,
            };
            if self.profile.ignores_clause(
                DirectiveKind::Update,
                if to_host {
                    ClauseKind::HostClause
                } else {
                    ClauseKind::DeviceClause
                },
            ) {
                continue;
            }
            for r in refs {
                let entry = match self.world.present.get(&r.name) {
                    Some(e) => e.clone(),
                    None => {
                        return Err(Abort::Crash(format!(
                            "update of `{}` which is not present on the device",
                            r.name
                        )))
                    }
                };
                let (start, len) = self.resolve_section(&r.name, &r.section)?;
                cost += len as u64;
                if to_host {
                    if is_async {
                        if let Some(dest) = self.host_array_id(&r.name) {
                            effects.push(DeferredEffect::Download {
                                buf: entry.buffer,
                                dest,
                                start,
                                len,
                            });
                        } else {
                            let fi = self.frames.len() - 1;
                            effects.push(DeferredEffect::ScalarDownload {
                                buf: entry.buffer,
                                frame: fi,
                                name: r.name.clone(),
                            });
                        }
                    } else {
                        self.download_now(&r.name, entry.buffer, start, len)?;
                    }
                } else {
                    self.upload_now(&r.name, entry.buffer, start, len)?;
                }
            }
        }
        if is_async {
            let tag = self.async_tag(dir)?;
            let payload = self.stash_deferred(effects);
            self.world
                .queues
                .enqueue(tag, self.world.clock.now() + cost, payload);
            self.world.metrics.async_launches += 1;
        } else {
            self.world.clock.advance(cost);
        }
        Ok(())
    }

    fn async_tag(&mut self, dir: &AccDirective) -> Exec<AsyncTag> {
        match dir.find(ClauseKind::Async) {
            Some(AccClause::Async(Some(e))) => {
                let v = self.eval_host(e)?.as_int().map_err(crash)?;
                Ok(AsyncTag::Numbered(v))
            }
            _ => Ok(AsyncTag::Default),
        }
    }

    fn stash_deferred(&mut self, effects: Vec<DeferredEffect>) -> u64 {
        self.deferred.push(effects);
        (self.deferred.len() - 1) as u64
    }

    fn apply_deferred(&mut self, payloads: Vec<u64>) -> Exec<()> {
        for p in payloads {
            let effects = std::mem::take(&mut self.deferred[p as usize]);
            for eff in effects {
                match eff {
                    DeferredEffect::Download {
                        buf,
                        dest,
                        start,
                        len,
                    } => {
                        let arr = &mut self.host_arrays[dest];
                        let bytes = self
                            .world
                            .mem
                            .download(buf, &mut arr.data, start, len)
                            .map_err(|e| Abort::Crash(e.to_string()))?;
                        self.world.metrics.bytes_to_host += bytes as u64;
                    }
                    DeferredEffect::ScalarDownload { buf, frame, name } => {
                        let v = self
                            .world
                            .mem
                            .read(buf, 0)
                            .map_err(|e| Abort::Crash(e.to_string()))?;
                        if let Some(f) = self.frames.get_mut(frame) {
                            if !f.set_val(&name, v) {
                                return Err(unresolved(&name));
                            }
                        }
                        self.world.metrics.bytes_to_host += 8;
                    }
                    DeferredEffect::Free(buf) => {
                        self.world
                            .mem
                            .free(buf)
                            .map_err(|e| Abort::Crash(e.to_string()))?;
                    }
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Data environment
    // ------------------------------------------------------------------

    pub(crate) fn host_array_id(&self, name: &str) -> Option<usize> {
        match self.frame().arr(name) {
            Some(ArrBinding::Host(id)) => Some(id),
            _ => None,
        }
    }

    /// Resolve a data-ref section to (start, len) in elements.
    fn resolve_section(
        &mut self,
        name: &str,
        section: &Option<(Expr, Expr)>,
    ) -> Exec<(usize, usize)> {
        match section {
            Some((s, l)) => {
                let start = self.eval_host(s)?.as_int().map_err(crash)?;
                let len = self.eval_host(l)?.as_int().map_err(crash)?;
                if start < 0 || len < 0 {
                    return Err(Abort::Crash(format!(
                        "negative array section on `{name}`: [{start}:{len}]"
                    )));
                }
                Ok((start as usize, len as usize))
            }
            None => match self.host_array_id(name) {
                Some(id) => Ok((0, self.host_arrays[id].data.len())),
                None => Ok((0, 1)), // scalar
            },
        }
    }

    fn upload_now(&mut self, name: &Name, buf: BufferId, start: usize, len: usize) -> Exec<()> {
        if self.transient_memcpy_fires() {
            return Err(Abort::Crash(format!(
                "transient fault: host-to-device memcpy of '{name}' failed"
            )));
        }
        if let Some(id) = self.host_array_id(name) {
            let arr = &self.host_arrays[id];
            let bytes = self
                .world
                .mem
                .upload(buf, &arr.data, start, len)
                .map_err(|e| Abort::Crash(e.to_string()))?;
            self.world.metrics.bytes_to_device += bytes as u64;
        } else {
            let v = self.read_var_host(name)?;
            self.world
                .mem
                .write(buf, 0, v)
                .map_err(|e| Abort::Crash(e.to_string()))?;
            self.world.metrics.bytes_to_device += 8;
        }
        Ok(())
    }

    fn download_now(&mut self, name: &str, buf: BufferId, start: usize, len: usize) -> Exec<()> {
        if self.transient_memcpy_fires() {
            return Err(Abort::Crash(format!(
                "transient fault: device-to-host memcpy of '{name}' failed"
            )));
        }
        if let Some(id) = self.host_array_id(name) {
            let arr = &mut self.host_arrays[id];
            let bytes = self
                .world
                .mem
                .download(buf, &mut arr.data, start, len)
                .map_err(|e| Abort::Crash(e.to_string()))?;
            self.world.metrics.bytes_to_host += bytes as u64;
        } else {
            let v = self
                .world
                .mem
                .read(buf, 0)
                .map_err(|e| Abort::Crash(e.to_string()))?;
            self.set_var(name, v)?;
            self.world.metrics.bytes_to_host += 8;
        }
        Ok(())
    }

    /// Process the data clauses of a directive; returns the names entered
    /// (to exit at region end, in reverse order).
    fn enter_data_clauses(
        &mut self,
        clauses: &[AccClause],
        dir_kind: DirectiveKind,
    ) -> Exec<Vec<Name>> {
        let mut entered = Vec::new();
        for c in clauses {
            let (kind, refs) = match c {
                AccClause::Data(k, refs) if is_mapping_clause(*k) => (*k, refs),
                _ => continue,
            };
            if self.profile.ignores_clause(dir_kind, kind) {
                continue;
            }
            for r in refs {
                self.enter_mapping(&r.name, &r.section, kind)?;
                entered.push(r.name.clone());
            }
        }
        Ok(entered)
    }

    fn enter_mapping(
        &mut self,
        name: &Name,
        section: &Option<(Expr, Expr)>,
        kind: ClauseKind,
    ) -> Exec<()> {
        let (start, len) = self.resolve_section(name, section)?;
        let already = self.world.present.contains(name);
        if kind == ClauseKind::Present {
            if already {
                self.world.present.reenter(name);
                self.world.metrics.present_hits += 1;
                return Ok(());
            }
            return Err(Abort::Crash(format!(
                "present clause: `{name}` is not present on the device"
            )));
        }
        if already {
            // present_or_* hit, or re-entry of a structured mapping.
            self.world.present.reenter(name);
            if kind.is_present_or() {
                self.world.metrics.present_hits += 1;
            }
            return Ok(());
        }
        if kind.is_present_or() {
            self.world.metrics.present_misses += 1;
        }
        // Fresh mapping.
        let is_scalar = self.host_array_id(name).is_none();
        let elem = if let Some(id) = self.host_array_id(name) {
            self.host_arrays[id].data.elem_type()
        } else {
            match self.read_var_host(name)? {
                Value::Int(_) => ScalarType::Int,
                Value::F32(_) => ScalarType::Float,
                Value::F64(_) => ScalarType::Double,
                Value::DevPtr(_) => {
                    return Err(Abort::Crash(format!(
                        "device pointer `{name}` cannot appear in a data clause"
                    )))
                }
            }
        };
        let total = if let Some(id) = self.host_array_id(name) {
            self.host_arrays[id].data.len()
        } else {
            1
        };
        if start + len > total {
            return Err(Abort::Crash(format!(
                "data clause section out of bounds on `{name}`: [{start}:{len}] of {total}"
            )));
        }
        let dims = if let Some(id) = self.host_array_id(name) {
            self.host_arrays[id].dims.clone()
        } else {
            vec![]
        };
        let buf = self.world.mem.alloc(elem, dims);
        self.world.metrics.allocations += 1;
        let base = base_clause(kind);
        let uploads = matches!(base, ClauseKind::Copy | ClauseKind::Copyin);
        let downloads = matches!(base, ClauseKind::Copy | ClauseKind::Copyout);
        let scalar_omitted = is_scalar && self.profile.has(&Defect::ScalarCopyOmitted);
        if uploads && !scalar_omitted {
            self.upload_now(name, buf, start, len)?;
        }
        let exit_action = if downloads && !scalar_omitted {
            ExitAction::CopyOut
        } else {
            ExitAction::Release
        };
        self.world.present.insert(
            name.clone(),
            PresentEntry {
                buffer: buf,
                start,
                len,
                exit_action,
                refcount: 1,
            },
        );
        Ok(())
    }

    /// Exit one mapping; performs the exit action. When `defer_to` is true
    /// the download/free are deferred (async region) — caller stashes them.
    fn exit_mapping(&mut self, name: &Name, collect_deferred: bool) -> Exec<Vec<DeferredEffect>> {
        let released = self
            .world
            .present
            .exit(name)
            .map_err(|e| Abort::Crash(e.to_string()))?;
        let mut effects = Vec::new();
        if let Some(entry) = released {
            if entry.exit_action == ExitAction::CopyOut {
                if collect_deferred {
                    if let Some(dest) = self.host_array_id(name) {
                        effects.push(DeferredEffect::Download {
                            buf: entry.buffer,
                            dest,
                            start: entry.start,
                            len: entry.len,
                        });
                    } else {
                        effects.push(DeferredEffect::ScalarDownload {
                            buf: entry.buffer,
                            frame: self.frames.len() - 1,
                            name: name.clone(),
                        });
                    }
                } else {
                    self.download_now(name, entry.buffer, entry.start, entry.len)?;
                }
            }
            if collect_deferred {
                effects.push(DeferredEffect::Free(entry.buffer));
            } else {
                self.world
                    .mem
                    .free(entry.buffer)
                    .map_err(|e| Abort::Crash(e.to_string()))?;
            }
        }
        Ok(effects)
    }

    // ------------------------------------------------------------------
    // Compute regions
    // ------------------------------------------------------------------

    fn exec_acc_block(&mut self, dir: &'a AccDirective, body: &'a [Stmt]) -> Exec<()> {
        match dir.kind {
            DirectiveKind::Parallel | DirectiveKind::Kernels => {
                self.exec_compute_region(dir, RegionBody::Block(body))
            }
            DirectiveKind::Data => self.exec_data_region(dir, HostRef::Ast(body)),
            DirectiveKind::HostData => self.exec_hostdata_region(dir, HostRef::Ast(body)),
            other => Err(Abort::Crash(format!(
                "`{}` cannot open a block",
                other.name()
            ))),
        }
    }

    /// Run a host-level body in either representation. Both engines share
    /// every directive handler through this dispatch, so data/host_data
    /// clause semantics are identical by construction.
    fn exec_host_ref(&mut self, body: HostRef<'a>) -> Exec<Flow> {
        match body {
            HostRef::Ast(b) => self.exec_body(b, None),
            HostRef::Code(c) => self.vm_host_chunk(c),
        }
    }

    pub(crate) fn exec_data_region(&mut self, dir: &'a AccDirective, body: HostRef<'a>) -> Exec<()> {
        if self.profile.ignores_directive(DirectiveKind::Data) {
            return self.exec_host_ref(body).map(|_| ());
        }
        if let Some(AccClause::If(e)) = dir.find(ClauseKind::If) {
            if !self.eval_host(e)?.truthy() {
                // if(false): no data movement; the region body still
                // executes (its compute constructs will map data
                // themselves).
                return self.exec_host_ref(body).map(|_| ());
            }
        }
        let entered = self.enter_data_clauses(&dir.clauses, DirectiveKind::Data)?;
        // `deviceptr` on a data construct makes the pointers
        // available to nested compute regions.
        let mut dp = FxHashMap::default();
        for c in &dir.clauses {
            if let AccClause::Deviceptr(names) = c {
                if self
                    .profile
                    .ignores_clause(DirectiveKind::Data, ClauseKind::Deviceptr)
                {
                    continue;
                }
                for n in names {
                    match self.read_var_host(n)? {
                        Value::DevPtr(buf) => {
                            dp.insert(n.clone(), buf);
                        }
                        other => {
                            return Err(Abort::Crash(format!(
                                "deviceptr `{n}` does not hold a device address (got {other})"
                            )))
                        }
                    }
                }
            }
        }
        self.data_devptr.push(dp);
        let flow = self.exec_host_ref(body);
        self.data_devptr.pop();
        for name in entered.iter().rev() {
            self.exit_mapping(name, false)?;
        }
        flow.map(|_| ())
    }

    pub(crate) fn exec_hostdata_region(
        &mut self,
        dir: &'a AccDirective,
        body: HostRef<'a>,
    ) -> Exec<()> {
        let mut overlay = FxHashMap::default();
        for c in &dir.clauses {
            if let AccClause::UseDevice(names) = c {
                if self
                    .profile
                    .ignores_clause(DirectiveKind::HostData, ClauseKind::UseDevice)
                {
                    continue;
                }
                for n in names {
                    match self.world.present.get(n) {
                        Some(e) => {
                            overlay.insert(n.clone(), e.buffer);
                        }
                        None => {
                            return Err(Abort::Crash(format!(
                                "use_device of `{n}` which is not present on the device"
                            )))
                        }
                    }
                }
            }
        }
        self.frame_mut().host_data.push(overlay);
        let flow = self.exec_host_ref(body);
        self.frame_mut().host_data.pop();
        flow.map(|_| ())
    }

    fn exec_acc_loop_toplevel(&mut self, dir: &'a AccDirective, l: &'a ForLoop) -> Exec<()> {
        match dir.kind {
            DirectiveKind::ParallelLoop | DirectiveKind::KernelsLoop => {
                self.exec_compute_region(dir, RegionBody::Loop(dir, l))
            }
            DirectiveKind::Loop => {
                // A loop directive outside any compute construct: executes
                // sequentially on the host (its scheduling clauses are
                // meaningless there).
                self.exec_for_host(l).map(|_| ())
            }
            other => Err(Abort::Crash(format!(
                "`{}` cannot annotate a loop",
                other.name()
            ))),
        }
    }

    pub(crate) fn exec_compute_region(
        &mut self,
        dir: &'a AccDirective,
        body: RegionBody<'a>,
    ) -> Exec<()> {
        let kernels_mode = matches!(
            dir.kind,
            DirectiveKind::Kernels | DirectiveKind::KernelsLoop
        );
        // A broken compute construct that has no effect leaves the region
        // running on the host.
        if self.profile.ignores_directive(dir.kind) {
            return self.region_host_fallback(&body);
        }
        // Hang defect?
        for c in &dir.clauses {
            if self.profile.hangs_on(dir.kind, c.kind()) {
                return Err(Abort::Timeout);
            }
        }
        // if(false): execute on the host, no data movement.
        if let Some(AccClause::If(e)) = dir.find(ClauseKind::If) {
            if !self.profile.ignores_clause(dir.kind, ClauseKind::If)
                && !self.eval_host(e)?.truthy()
            {
                return self.region_host_fallback(&body);
            }
        }
        // Dead-region elimination defect (§V-B Cray, Fig. 11).
        if self.profile.has(&Defect::EliminateDeadComputeRegions) && region_is_dead(&body) {
            return Ok(());
        }
        // Launch configuration.
        let g = self.sizing(dir, ClauseKind::NumGangs, self.profile.default_gangs)?;
        let w = self.sizing(dir, ClauseKind::NumWorkers, self.profile.default_workers)?;
        let v = self.sizing(dir, ClauseKind::VectorLength, self.profile.default_vector)?;
        use acc_spec::ParallelismLevel as PL;
        let num_gangs = if kernels_mode {
            1 // kernels body is single-gang; loops auto-partition
        } else {
            self.profile.mapping.effective_width(PL::Gang, g)
        };
        let num_workers = self.profile.mapping.effective_width(PL::Worker, w);
        let vector_len = self.profile.mapping.effective_width(PL::Vector, v);

        // Data environment.
        let mut entered = self.enter_data_clauses(&dir.clauses, dir.kind)?;
        // deviceptr bindings (inherited from enclosing data regions, then
        // this directive's own clause).
        let mut devptr: FxHashMap<Name, BufferId> = FxHashMap::default();
        for m in &self.data_devptr {
            devptr.extend(m.iter().map(|(k, v)| (k.clone(), *v)));
        }
        for c in &dir.clauses {
            if let AccClause::Deviceptr(names) = c {
                if self.profile.ignores_clause(dir.kind, ClauseKind::Deviceptr) {
                    continue;
                }
                for n in names {
                    match self.read_var_host(n)? {
                        Value::DevPtr(buf) => {
                            devptr.insert(n.clone(), buf);
                        }
                        other => {
                            return Err(Abort::Crash(format!(
                                "deviceptr `{n}` does not hold a device address (got {other})"
                            )))
                        }
                    }
                }
            }
        }
        // Implicit mappings for referenced arrays (1.0's present_or_copy
        // default, §V-C "Default behavior").
        for name in self.referenced_arrays(&body).iter() {
            if self.world.present.contains(name) {
                self.world.present.reenter(name);
                entered.push(name.clone());
            } else if !devptr.contains_key(name) && self.host_array_id(name).is_some() {
                self.enter_mapping(name, &None, ClauseKind::PresentOrCopy)?;
                entered.push(name.clone());
            }
        }

        // Reduction / privatization setup. Names resolve to frame slots
        // once here; the per-gang setup below is pure slot writes.
        let layout = self.cur_layout();
        let mut reductions: Vec<(acc_spec::ReductionOp, &'a Name, Value, usize)> = Vec::new();
        for c in &dir.clauses {
            if let AccClause::Reduction(op, vars) = c {
                if self.profile.ignores_clause(dir.kind, ClauseKind::Reduction) {
                    continue;
                }
                for var in vars {
                    let initial = self.region_scalar_read(var)?;
                    let slot = layout.slot(var).ok_or_else(|| unresolved(var))?;
                    reductions.push((*op, var, initial, slot));
                }
            }
        }
        let mut private: Vec<(usize, &'a Name)> = Vec::new();
        let mut firstprivate: Vec<(usize, &'a Name)> = Vec::new();
        for c in &dir.clauses {
            match c {
                AccClause::Private(vs)
                    if !self.profile.ignores_clause(dir.kind, ClauseKind::Private) =>
                {
                    if self.profile.has(&Defect::PrivateAliasesShared) {
                        // Defective privatization: the "private" variables
                        // share one device copy across all gangs.
                        for name in vs {
                            if !self.world.present.contains(name) {
                                self.enter_mapping(name, &None, ClauseKind::Create)?;
                            } else {
                                self.world.present.reenter(name);
                            }
                            entered.push(name.clone());
                        }
                    } else {
                        for name in vs {
                            let slot = layout.slot(name).ok_or_else(|| unresolved(name))?;
                            private.push((slot, name));
                        }
                    }
                }
                AccClause::Firstprivate(vs)
                    if !self
                        .profile
                        .ignores_clause(dir.kind, ClauseKind::Firstprivate) =>
                {
                    for name in vs {
                        let slot = layout.slot(name).ok_or_else(|| unresolved(name))?;
                        firstprivate.push((slot, name));
                    }
                }
                _ => {}
            }
        }

        // Execute gangs in deterministic sequence.
        self.world.metrics.kernels_launched += 1;
        if acc_obs::active() {
            acc_obs::instant(
                "launch",
                "kernel",
                vec![acc_obs::i("gangs", num_gangs as i64)],
            );
        }
        let cost_before = self.region_cost;
        let mut reduction_acc: Vec<Value> = reductions
            .iter()
            .map(|(op, _, init, _)| identity_like(*op, *init))
            .collect();
        for gang in 0..num_gangs {
            let mut ctx = DevCtx::for_gang(
                num_gangs,
                num_workers,
                vector_len,
                gang,
                kernels_mode,
                layout,
                &devptr,
            );
            for (slot, name) in &private {
                let ty = self.host_scalar_type(name);
                let gv = self.garbage_value(ty);
                ctx.bind_gang(*slot, gv);
            }
            for (slot, name) in &firstprivate {
                let val = if self.profile.has(&Defect::FirstprivateUninitialized) {
                    let ty = self.host_scalar_type(name);
                    self.garbage_value(ty)
                } else {
                    self.region_scalar_read(name)?
                };
                ctx.bind_gang(*slot, val);
            }
            for (op, _, init, slot) in &reductions {
                ctx.bind_gang(*slot, identity_like(*op, *init));
            }
            match &body {
                RegionBody::Block(b) => {
                    self.exec_body(b, Some(&mut ctx))?;
                }
                RegionBody::Loop(dir, l) => {
                    self.exec_acc_loop_device(dir, DevLoopRef::Ast(l), &mut ctx)?;
                }
                RegionBody::Code(rc) => match rc.dev {
                    crate::bytecode::RegionDev::Block(chunk) => {
                        self.vm_dev_chunk(chunk, &mut ctx)?;
                    }
                    crate::bytecode::RegionDev::Loop(nid) => {
                        let nest = &self.image().nests[nid as usize];
                        self.exec_acc_loop_device(dir, DevLoopRef::Code(nest), &mut ctx)?;
                    }
                },
            }
            // Fold this gang's reduction copies.
            for (i, (op, _, _, slot)) in reductions.iter().enumerate() {
                let copy = ctx.value(*slot).unwrap_or(Value::Int(0));
                if self.profile.has(&Defect::WrongReduction(*op)) && gang == 0 {
                    continue; // drop gang 0's contribution: silent wrong code
                }
                reduction_acc[i] = combine(*op, reduction_acc[i], copy).map_err(crash)?;
                self.world.metrics.reductions += 1;
            }
        }
        // Write back reduction results (combined with the pre-region value).
        for ((op, name, init, _), acc) in reductions.iter().zip(reduction_acc) {
            let final_v = combine(*op, *init, acc).map_err(crash)?;
            self.region_scalar_write(name, final_v)?;
        }

        // Cost/async accounting and exit data movement.
        let cost = (self.region_cost - cost_before).max(1) + 10;
        let is_async = dir.find(ClauseKind::Async).is_some()
            && !self.profile.ignores_clause(dir.kind, ClauseKind::Async);
        if is_async {
            let tag = self.async_tag(dir)?;
            let mut effects = Vec::new();
            for name in entered.iter().rev() {
                effects.extend(self.exit_mapping(name, true)?);
            }
            let payload = self.stash_deferred(effects);
            self.world
                .queues
                .enqueue(tag, self.world.clock.now() + cost, payload);
            self.world.metrics.async_launches += 1;
            self.world.clock.advance(1); // launch overhead only
        } else {
            for name in entered.iter().rev() {
                self.exit_mapping(name, false)?;
            }
            self.world.clock.advance(cost);
        }
        Ok(())
    }

    fn sizing(&mut self, dir: &AccDirective, kind: ClauseKind, default: u32) -> Exec<u32> {
        if self.profile.ignores_clause(dir.kind, kind) {
            return Ok(default);
        }
        let e = match dir.find(kind) {
            Some(AccClause::NumGangs(e))
            | Some(AccClause::NumWorkers(e))
            | Some(AccClause::VectorLength(e)) => e,
            _ => return Ok(default),
        };
        let v = self.eval_host(e)?.as_int().map_err(crash)?;
        if !(1..=1_000_000).contains(&v) {
            return Err(Abort::Crash(format!("invalid {} value {v}", kind.name())));
        }
        Ok(v as u32)
    }

    /// Read a scalar that may be device-mapped (for reductions and
    /// firstprivate initialization).
    fn region_scalar_read(&mut self, name: &Name) -> Exec<Value> {
        if let Some(e) = self.world.present.get(name) {
            let buf = e.buffer;
            return self
                .world
                .mem
                .read(buf, 0)
                .map_err(|e| Abort::Crash(e.to_string()));
        }
        self.read_var_host(name)
    }

    fn region_scalar_write(&mut self, name: &str, v: Value) -> Exec<()> {
        if let Some(e) = self.world.present.get(name) {
            let buf = e.buffer;
            self.world
                .mem
                .write(buf, 0, v)
                .map_err(|e| Abort::Crash(e.to_string()))?;
        }
        // Reduction results are also visible on the host after the region.
        if self.frame().val(name).is_some() && !self.frame_mut().set_val(name, v) {
            return Err(unresolved(name));
        }
        Ok(())
    }

    fn host_scalar_type(&self, name: &str) -> ScalarType {
        match self.frame().ty(name) {
            Some(t) => t.scalar(),
            None => ScalarType::Int,
        }
    }

    /// The host fallback of a compute region (broken directive, `if(false)`):
    /// the body executes sequentially with no data movement. Both engines
    /// run it on the walker: a lowered region refers to its statements in
    /// the program, and nothing lowers them for the host.
    fn region_host_fallback(&mut self, body: &RegionBody<'a>) -> Exec<()> {
        use crate::bytecode::RegionAst;
        match *body {
            RegionBody::Block(b) => self.exec_body(b, None),
            RegionBody::Loop(_, l) => self.exec_for_host(l),
            RegionBody::Code(rc) => match rc.ast {
                RegionAst::Block(b) => self.exec_body(self.image().node(b), None),
                RegionAst::Loop(l) => self.exec_for_host(self.image().node(l)),
            },
        }
        .map(|_| ())
    }

    /// Array names referenced anywhere in the region body (sorted — the
    /// implicit-mapping order is part of observable behaviour). Lowered
    /// regions carry the same list precomputed at compile time, lent here.
    fn referenced_arrays(&self, body: &RegionBody<'a>) -> Cow<'a, [Name]> {
        let mut names = Vec::new();
        match *body {
            RegionBody::Block(b) => push_region_arrays(b, None, &mut names),
            RegionBody::Loop(_, l) => push_region_arrays(&l.body, Some(l), &mut names),
            RegionBody::Code(rc) => return Cow::Borrowed(self.image().region_arrays(rc)),
        }
        Cow::Owned(names)
    }

    // ------------------------------------------------------------------
    // Device execution
    // ------------------------------------------------------------------

    pub(crate) fn exec_stmt_device(&mut self, s: &'a Stmt, ctx: &mut DevCtx) -> Exec<Flow> {
        self.tick()?;
        self.region_cost += 1;
        match s {
            Stmt::DeclScalar { name, ty, init } => {
                let v = match init {
                    Some(e) => self
                        .eval_device(e, ctx)?
                        .convert_to(ty.scalar())
                        .map_err(crash)?,
                    None => self.garbage_value(ty.scalar()),
                };
                let slot = ctx.slot(name).ok_or_else(|| unresolved(name))?;
                ctx.set_local(slot, v);
                Ok(Flow::Normal)
            }
            Stmt::DeclArray { .. } => Err(Abort::Crash(
                "array declarations inside compute regions are not supported".into(),
            )),
            Stmt::Assign { target, op, value } => {
                let rhs = self.eval_device(value, ctx)?;
                let newv = match op {
                    None => rhs,
                    Some(op) => {
                        let old = self.read_lvalue_device(target, ctx)?;
                        apply_binop(*op, old, rhs).map_err(crash)?
                    }
                };
                self.write_lvalue_device(target, newv, ctx)?;
                Ok(Flow::Normal)
            }
            Stmt::For(l) => {
                // An unannotated loop in a compute region executes in full by
                // the current execution unit (gang-redundant!) — the very
                // effect the cross tests detect.
                self.exec_for_device(l, UnitSel::All, ctx)
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                let c = self.eval_device(cond, ctx)?;
                if c.truthy() {
                    self.exec_body_device(then_body, ctx)
                } else {
                    self.exec_body_device(else_body, ctx)
                }
            }
            Stmt::Call { name, args } => {
                // Runtime routines callable from device code (acc_on_device);
                // user procedure calls are rejected (no `routine` in 1.0).
                self.call_device(name, args, ctx)?;
                Ok(Flow::Normal)
            }
            Stmt::Return(_) => Err(Abort::Crash(
                "return inside a compute region is not supported".into(),
            )),
            Stmt::AccLoop { dir, l } => {
                self.exec_acc_loop_device(dir, DevLoopRef::Ast(l), ctx)?;
                Ok(Flow::Normal)
            }
            Stmt::AccBlock { dir, .. } => Err(Abort::Crash(format!(
                "nested `{}` regions inside compute constructs are not supported in 1.0",
                dir.kind.name()
            ))),
            Stmt::AccStandalone { dir } => match dir.kind {
                DirectiveKind::Cache => Ok(Flow::Normal),
                other => Err(Abort::Crash(format!(
                    "`{}` directive inside a compute region",
                    other.name()
                ))),
            },
        }
    }

    fn exec_body_device(&mut self, body: &'a [Stmt], ctx: &mut DevCtx) -> Exec<Flow> {
        for s in body {
            if let Flow::Return(v) = self.exec_stmt_device(s, ctx)? {
                return Ok(Flow::Return(v));
            }
        }
        Ok(Flow::Normal)
    }

    fn call_device(&mut self, name: &str, args: &[Expr], ctx: &mut DevCtx) -> Exec<Value> {
        // User procedures are rejected up front (no `routine` directive in
        // 1.0, §V-C) — before argument evaluation, like a real front-end.
        if !is_intrinsic_name(name) && self.prog.function(name).is_some() {
            return Err(Abort::Crash(format!(
                "procedure call `{name}` inside a compute region is not supported by OpenACC 1.0"
            )));
        }
        if let Some(r) = RuntimeRoutine::from_symbol(name) {
            if r == RuntimeRoutine::OnDevice {
                return with_stack_list(args.len(), Value::Int(0), |vals| {
                    for (v, a) in vals.iter_mut().zip(args) {
                        *v = self.eval_device(a, ctx)?;
                    }
                    // Defective runtimes misreport from device code too.
                    if let Some(c) = self.profile.routine_override(r) {
                        return Ok(Value::Int(c));
                    }
                    let (v, _) = dispatch(r, vals, &mut self.world, true, ScalarType::Float)
                        .map_err(|e| Abort::Crash(e.to_string()))?;
                    Ok(v)
                });
            }
            return Err(Abort::Crash(format!(
                "runtime routine `{}` cannot be called from device code",
                r.symbol()
            )));
        }
        // Intrinsics with device-context arguments.
        with_stack_list(args.len(), Value::Int(0), |vals| {
            for (v, a) in vals.iter_mut().zip(args) {
                *v = self.eval_device(a, ctx)?;
            }
            eval_pure_intrinsic(name, vals).ok_or_else(|| {
                Abort::Crash(format!(
                    "procedure call `{name}` inside a compute region is not supported by OpenACC 1.0"
                ))
            })?
        })
    }

    pub(crate) fn eval_device(&mut self, e: &Expr, ctx: &mut DevCtx) -> Exec<Value> {
        match e {
            Expr::Int(v) => Ok(Value::Int(*v)),
            Expr::Real(v, t) => Ok(match t {
                ScalarType::Float => Value::F32(*v as f32),
                _ => Value::F64(*v),
            }),
            Expr::Var(n) => self.read_scalar_device(n, ctx),
            Expr::Index { base, indices } => {
                let (buf, i) = self.flat_index_device(base, indices, ctx)?;
                self.world
                    .mem
                    .read(buf, i)
                    .map_err(|e| Abort::Crash(e.to_string()))
            }
            Expr::Unary(op, inner) => {
                let v = self.eval_device(inner, ctx)?;
                apply_unop(*op, v).map_err(crash)
            }
            Expr::Binary(op, l, r) => {
                let a = self.eval_device(l, ctx)?;
                if *op == BinOp::And && !a.truthy() {
                    return Ok(Value::Int(0));
                }
                if *op == BinOp::Or && a.truthy() {
                    return Ok(Value::Int(1));
                }
                let b = self.eval_device(r, ctx)?;
                apply_binop(*op, a, b).map_err(crash)
            }
            Expr::Call { name, args } => self.call_device(name, args, ctx),
            Expr::SizeOf(t) => Ok(Value::Int(t.size_bytes() as i64)),
        }
    }

    fn read_scalar_device(&mut self, n: &Name, ctx: &mut DevCtx) -> Exec<Value> {
        let slot = ctx.slot(n);
        self.read_scalar_device_at(n, slot, ctx)
    }

    /// [`Self::read_scalar_device`] with the slot pre-resolved (VM fast
    /// path) — identical lookup order.
    pub(crate) fn read_scalar_device_at(
        &mut self,
        n: &Name,
        slot: Option<usize>,
        ctx: &mut DevCtx,
    ) -> Exec<Value> {
        if let Some(v) = slot.and_then(|s| ctx.value(s)) {
            return Ok(v);
        }
        if let Some(buf) = ctx.devptr.get(n) {
            return Ok(Value::DevPtr(*buf));
        }
        if let Some(e) = self.world.present.get(n) {
            // A mapped scalar: read its device copy.
            if self.host_array_id(n).is_none() {
                let buf = e.buffer;
                return self
                    .world
                    .mem
                    .read(buf, 0)
                    .map_err(|e| Abort::Crash(e.to_string()));
            }
        }
        if let Some(v) = device_constant(n) {
            return Ok(v);
        }
        // Implicit firstprivate: snapshot the host value into the gang scope.
        if let (Some(s), Some(v)) = (slot, self.frame().val(n)) {
            ctx.bind_gang(s, v);
            return Ok(v);
        }
        Err(Abort::Crash(format!(
            "device read of undefined variable `{n}`"
        )))
    }

    fn write_scalar_device(&mut self, n: &Name, v: Value, ctx: &mut DevCtx) -> Exec<()> {
        let slot = ctx.slot(n);
        self.write_scalar_device_at(n, slot, v, ctx)
    }

    /// [`Self::write_scalar_device`] with the slot pre-resolved (VM fast
    /// path) — identical lookup order.
    pub(crate) fn write_scalar_device_at(
        &mut self,
        n: &Name,
        slot: Option<usize>,
        v: Value,
        ctx: &mut DevCtx,
    ) -> Exec<()> {
        if let Some(s) = slot {
            if ctx.assign_existing(s, v) {
                return Ok(());
            }
        }
        if let Some(e) = self.world.present.get(n) {
            if self.host_array_id(n).is_none() {
                let buf = e.buffer;
                return self
                    .world
                    .mem
                    .write(buf, 0, v)
                    .map_err(|e| Abort::Crash(e.to_string()));
            }
        }
        // Implicit firstprivate write: lands in the gang scope only.
        let slot = slot.ok_or_else(|| unresolved(n))?;
        ctx.bind_gang(slot, v);
        Ok(())
    }

    fn read_lvalue_device(&mut self, lv: &LValue, ctx: &mut DevCtx) -> Exec<Value> {
        match lv {
            LValue::Var(n) => self.read_scalar_device(n, ctx),
            LValue::Index { base, indices } => {
                let (buf, i) = self.flat_index_device(base, indices, ctx)?;
                self.world
                    .mem
                    .read(buf, i)
                    .map_err(|e| Abort::Crash(e.to_string()))
            }
        }
    }

    fn write_lvalue_device(&mut self, lv: &LValue, v: Value, ctx: &mut DevCtx) -> Exec<()> {
        match lv {
            LValue::Var(n) => self.write_scalar_device(n, v, ctx),
            LValue::Index { base, indices } => {
                let (buf, i) = self.flat_index_device(base, indices, ctx)?;
                self.world
                    .mem
                    .write(buf, i, v)
                    .map_err(|e| Abort::Crash(e.to_string()))
            }
        }
    }

    fn flat_index_device(
        &mut self,
        base: &Name,
        indices: &[Expr],
        ctx: &mut DevCtx,
    ) -> Exec<(BufferId, usize)> {
        with_stack_list(indices.len(), 0, |vals| {
            for (v, e) in vals.iter_mut().zip(indices) {
                *v = self.eval_device(e, ctx)?.as_int().map_err(crash)?;
            }
            // deviceptr binding?
            let buf = if let Some(b) = ctx.devptr.get(base) {
                *b
            } else if let Some(e) = self.world.present.get(base) {
                e.buffer
            } else {
                // A raw pointer without a deviceptr binding dereferenced in
                // device code: the generated kernel would fault, exactly
                // like a real compiler passing a host pointer to the device.
                return Err(Abort::Crash(format!(
                    "device access to `{base}` which is not present on the device"
                )));
            };
            let dims = &self
                .world
                .mem
                .get(buf)
                .map_err(|e| Abort::Crash(e.to_string()))?
                .dims;
            Ok((buf, dev_flat(base, vals, dims)?))
        })
    }

    // ------------------------------------------------------------------
    // Device loops
    // ------------------------------------------------------------------

    pub(crate) fn exec_acc_loop_device(
        &mut self,
        dir: &'a AccDirective,
        body: DevLoopRef<'a>,
        ctx: &mut DevCtx,
    ) -> Exec<()> {
        if self.profile.ignores_directive(DirectiveKind::Loop) && dir.kind == DirectiveKind::Loop {
            // The directive has no effect: redundant full execution. (A
            // collapsed run at depth 1 selecting every iteration is the
            // same traversal as `exec_for_device(l, All)`.)
            return match body {
                DevLoopRef::Ast(l) => self.exec_for_device(l, UnitSel::All, ctx).map(|_| ()),
                DevLoopRef::Code(nest) => self.vm_nest_collapsed(nest, 1, UnitSel::All, ctx),
            };
        }
        for c in &dir.clauses {
            if self.profile.hangs_on(dir.kind, c.kind()) {
                return Err(Abort::Timeout);
            }
        }
        // The clauses the release honours.
        let profile = self.profile;
        let clauses = || {
            dir.clauses
                .iter()
                .filter(move |c| !profile.ignores_clause(dir.kind, c.kind()))
        };
        // collapse handling.
        let collapse_n = clauses()
            .find_map(|c| match c {
                AccClause::Collapse(e) => e.const_int(),
                _ => None,
            })
            .unwrap_or(1)
            .max(1) as usize;
        let collapse_n = if self.profile.has(&Defect::CollapseIgnoresInner) {
            1
        } else {
            collapse_n
        };

        let has = |k: ClauseKind| clauses().any(|c| c.kind() == k);
        let seq = has(ClauseKind::Seq);
        let gang_c = has(ClauseKind::Gang);
        let worker_c = has(ClauseKind::Worker);
        let vector_c = has(ClauseKind::Vector);

        // Reductions on the loop, resolved to their frame slots up front.
        let mut reductions: Vec<(acc_spec::ReductionOp, &'a Name, usize)> = Vec::new();
        for c in clauses() {
            if let AccClause::Reduction(op, vars) = c {
                for v in vars {
                    let slot = ctx.slot(v).ok_or_else(|| unresolved(v))?;
                    reductions.push((*op, v, slot));
                }
            }
        }
        // Loop privates (as slots — the per-unit rebind is a vector store).
        let mut privates: Vec<usize> = Vec::new();
        for c in clauses() {
            if let AccClause::Private(vs) = c {
                if self.profile.has(&Defect::PrivateAliasesShared) {
                    // Defective privatization: one shared device copy. The
                    // mapping deliberately leaks until the run ends — the
                    // defective compiler never releases it either.
                    for name in vs {
                        if !self.world.present.contains(name) {
                            self.enter_mapping(name, &None, ClauseKind::Create)?;
                        }
                    }
                } else {
                    for name in vs {
                        privates.push(ctx.slot(name).ok_or_else(|| unresolved(name))?);
                    }
                }
            }
        }

        // Decide the unit set: `units` units, the `i`-th running the
        // iterations `k` with `k % m == first + i` (every iteration when
        // `m` is `None`).
        let g = ctx.num_gangs.max(1) as u64;
        let w = ctx.num_workers.max(1) as u64;
        let v = ctx.vector_len.max(1) as u64;
        let gang = ctx.gang as u64;
        let (units, m, first): (u64, Option<u64>, u64) = if seq {
            (1, None, 0)
        } else if ctx.kernels_mode {
            // kernels: auto-parallelized across the auto gang count; the
            // single executing "gang" walks all partitions.
            let auto = self.profile.kernels_auto_gangs.max(1) as u64;
            (auto, Some(auto), 0)
        } else if gang_c && worker_c {
            (w, Some(g * w), gang * w)
        } else if gang_c {
            (1, Some(g), gang)
        } else if worker_c && !ctx.in_gang_loop {
            // Fig. 1 ambiguity: worker loop without an enclosing gang loop.
            match self.profile.worker_loop_policy {
                WorkerLoopPolicy::PerGangWorkers => (w, Some(w), 0),
                WorkerLoopPolicy::SpreadAcrossGangs => (w, Some(g * w), gang * w),
                WorkerLoopPolicy::SequentialPerGang => (1, None, 0),
            }
        } else if worker_c {
            // Inside a gang loop: partition across this gang's workers —
            // collectively the iterations run once per owning gang iteration.
            (w, Some(w), 0)
        } else if vector_c {
            (v, Some(v), 0)
        } else {
            // Bare loop (or independent): auto-partition across gangs.
            (1, Some(g), gang)
        };

        // Snapshot reduction initials.
        let mut red_state: Vec<(acc_spec::ReductionOp, &'a Name, usize, Value, Value)> = Vec::new();
        for (op, name, slot) in &reductions {
            let init = match ctx.value(*slot) {
                Some(v) => v,
                None => self.read_scalar_device(name, ctx)?,
            };
            red_state.push((*op, name, *slot, init, identity_like(*op, init)));
        }

        let entering_gang_loop = gang_c;
        for ui in 0..units {
            let unit = match m {
                None => UnitSel::All,
                Some(m) => UnitSel::Modulo { m, r: first + ui },
            };
            // Per-unit scope for privates and reduction copies.
            ctx.push_scope();
            for slot in &privates {
                let gv = self.garbage_value(ScalarType::Int);
                ctx.set_local(*slot, gv);
            }
            for (op, _, slot, init, _) in &red_state {
                ctx.set_local(*slot, identity_like(*op, *init));
            }
            let saved = ctx.in_gang_loop;
            if entering_gang_loop {
                ctx.in_gang_loop = true;
            }
            let res = match body {
                DevLoopRef::Ast(l) => self.exec_collapsed_loop(l, collapse_n, unit, ctx),
                DevLoopRef::Code(nest) => self.vm_nest_collapsed(nest, collapse_n, unit, ctx),
            };
            ctx.in_gang_loop = saved;
            if res.is_err() {
                ctx.pop_scope();
                return res;
            }
            // Fold reduction copies — read before the pop restores the
            // shadowed bindings.
            #[allow(clippy::needless_range_loop)] // split borrow of red_state[i].4
            for i in 0..red_state.len() {
                let (op, slot) = (red_state[i].0, red_state[i].2);
                let copy = ctx.value(slot).unwrap_or(Value::Int(0));
                if self.profile.has(&Defect::WrongReduction(op)) && ui == 0 {
                    continue;
                }
                red_state[i].4 = combine(op, red_state[i].4, copy).map_err(crash)?;
                self.world.metrics.reductions += 1;
            }
            ctx.pop_scope();
        }
        // Write back reductions.
        for (op, name, _, init, acc) in red_state {
            let final_v = combine(op, init, acc).map_err(crash)?;
            self.write_scalar_device(name, final_v, ctx)?;
        }
        Ok(())
    }

    /// Execute a (possibly collapsed) counted loop on the device, running
    /// the iterations selected by `unit`.
    fn exec_collapsed_loop(
        &mut self,
        l: &'a ForLoop,
        collapse_n: usize,
        unit: UnitSel,
        ctx: &mut DevCtx,
    ) -> Exec<()> {
        with_stack_list(collapse_n, l, |loops| {
            // Gather the collapsed nest.
            for d in 1..collapse_n {
                match loops[d - 1].body.as_slice() {
                    [Stmt::For(inner)] => loops[d] = inner,
                    _ => {
                        return Err(Abort::Crash(
                            "collapse requires tightly nested loops".into(),
                        ))
                    }
                }
            }
            let body: &'a [Stmt] = &loops[collapse_n - 1].body;
            with_stack_list(collapse_n, NestDim::default(), |dims| {
                // Evaluate bounds once (rectangular iteration space).
                for (dim, lp) in dims.iter_mut().zip(loops.iter()) {
                    let from = self.eval_device(&lp.from, ctx)?.as_int().map_err(crash)?;
                    let to = self.eval_device(&lp.to, ctx)?.as_int().map_err(crash)?;
                    let step = self.eval_device(&lp.step, ctx)?.as_int().map_err(crash)?;
                    *dim = NestDim::new(from, to, step)?;
                }
                for (dim, lp) in dims.iter_mut().zip(loops.iter()) {
                    dim.slot = ctx.slot(&lp.var).ok_or_else(|| unresolved(&lp.var))?;
                }
                for flat in 0..nest_total(dims) {
                    if !unit.selects(flat) {
                        continue;
                    }
                    place_nest(dims, flat);
                    for d in dims.iter() {
                        ctx.set_local(d.slot, Value::Int(d.at));
                    }
                    self.world.metrics.device_iterations += 1;
                    self.exec_body_device(body, ctx)?;
                }
                Ok(())
            })
        })
    }

    fn exec_for_device(&mut self, l: &'a ForLoop, unit: UnitSel, ctx: &mut DevCtx) -> Exec<Flow> {
        let from = self.eval_device(&l.from, ctx)?.as_int().map_err(crash)?;
        let to = self.eval_device(&l.to, ctx)?.as_int().map_err(crash)?;
        let step = self.eval_device(&l.step, ctx)?.as_int().map_err(crash)?;
        if step <= 0 {
            return Err(Abort::Crash(format!(
                "loop step must be positive, got {step}"
            )));
        }
        let var_slot = ctx.slot(&l.var).ok_or_else(|| unresolved(&l.var))?;
        let mut k: u64 = 0;
        let mut i = from;
        while i < to {
            if unit.selects(k) {
                ctx.set_local(var_slot, Value::Int(i));
                self.world.metrics.device_iterations += 1;
                if let Flow::Return(v) = self.exec_body_device(&l.body, ctx)? {
                    return Ok(Flow::Return(v));
                }
            }
            i = i.wrapping_add(step);
            k += 1;
        }
        Ok(Flow::Normal)
    }
}

impl Drop for Machine<'_> {
    fn drop(&mut self) {
        self.drain_reg_pool();
    }
}

/// Append to `names` the array names a compute region indexes in `block`,
/// its statements, and, for a combined construct, in the bounds of its
/// loop `l` (whose body `block` is); then sort and deduplicate what was
/// appended: the order of the region's implicit `present_or_copy`
/// mappings, which is observable.
pub(crate) fn push_region_arrays(block: &[Stmt], l: Option<&ForLoop>, names: &mut Vec<Name>) {
    let start = names.len();
    if let Some(l) = l {
        collect_expr_bases(&l.from, names);
        collect_expr_bases(&l.to, names);
    }
    collect_index_bases(block, names);
    names[start..].sort_unstable();
    let mut kept = start;
    for i in start..names.len() {
        if kept == start || names[i] != names[kept - 1] {
            names.swap(kept, i);
            kept += 1;
        }
    }
    names.truncate(kept);
}

fn collect_expr_bases(e: &Expr, names: &mut Vec<Name>) {
    e.visit(&mut |x| {
        if let Expr::Index { base, .. } = x {
            names.push(base.clone());
        }
    });
}

fn collect_index_bases(stmts: &[Stmt], names: &mut Vec<Name>) {
    for s in stmts {
        s.visit(&mut |st| match st {
            Stmt::Assign { target, value, .. } => {
                if let LValue::Index { base, indices } = target {
                    names.push(base.clone());
                    for i in indices {
                        collect_expr_bases(i, names);
                    }
                }
                collect_expr_bases(value, names);
            }
            Stmt::DeclScalar { init: Some(e), .. } => collect_expr_bases(e, names),
            Stmt::For(l) => {
                collect_expr_bases(&l.from, names);
                collect_expr_bases(&l.to, names);
            }
            Stmt::AccLoop { l, .. } => {
                collect_expr_bases(&l.from, names);
                collect_expr_bases(&l.to, names);
            }
            Stmt::Return(e) => collect_expr_bases(e, names),
            Stmt::If { cond, .. } => collect_expr_bases(cond, names),
            Stmt::Call { args, .. } => {
                for a in args {
                    collect_expr_bases(a, names);
                }
            }
            _ => {}
        });
    }
}

/// One loop of a collapsed nest, its bounds evaluated once: the first
/// value, the step and the trip count, the slot of its variable, and
/// `at`, the variable's value in the iteration being run.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NestDim {
    from: i64,
    step: i64,
    count: u64,
    pub(crate) slot: usize,
    pub(crate) at: i64,
}

impl NestDim {
    /// The loop `for (v = from; v < to; v += step)`; a step below 1 is a
    /// crash. The trip count is exact for any bounds: it is computed in
    /// `i128`, so `to - from` cannot overflow.
    pub(crate) fn new(from: i64, to: i64, step: i64) -> Exec<NestDim> {
        if step <= 0 {
            return Err(Abort::Crash(format!(
                "loop step must be positive, got {step}"
            )));
        }
        let count = if to > from {
            let span = i128::from(to) - i128::from(from);
            u64::try_from((span + i128::from(step) - 1) / i128::from(step)).unwrap_or(u64::MAX)
        } else {
            0
        };
        Ok(NestDim {
            from,
            step,
            count,
            slot: 0,
            at: 0,
        })
    }
}

/// The iterations of the whole nest: the product of the trip counts,
/// saturating (a step budget ends such a nest long before).
pub(crate) fn nest_total(dims: &[NestDim]) -> u64 {
    dims.iter().fold(1, |total, d| total.saturating_mul(d.count))
}

/// Set each loop's `at` for the nest's `flat`-th iteration (row-major),
/// `flat` below [`nest_total`]. What is left for the outermost loop is
/// then below its count, so it needs no division. `from + k * step`
/// stays below the loop bound, so computing it with wrapping arithmetic
/// gives the exact value.
#[inline]
pub(crate) fn place_nest(dims: &mut [NestDim], flat: u64) {
    let Some((outer, inner)) = dims.split_first_mut() else {
        return;
    };
    let mut rem = flat;
    for d in inner.iter_mut().rev() {
        let c = d.count.max(1);
        d.at = d.from.wrapping_add(((rem % c) as i64).wrapping_mul(d.step));
        rem /= c;
    }
    outer.at = outer.from.wrapping_add((rem as i64).wrapping_mul(outer.step));
}

/// Iteration ownership predicate of one execution unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnitSel {
    All,
    Modulo { m: u64, r: u64 },
}

impl UnitSel {
    pub(crate) fn selects(self, k: u64) -> bool {
        match self {
            UnitSel::All => true,
            UnitSel::Modulo { m, r } => m <= 1 || k % m == r,
        }
    }
}

/// The body of a compute region (block or combined-loop form), in either
/// representation — both engines run through the same region handler.
pub(crate) enum RegionBody<'a> {
    Block(&'a [Stmt]),
    Loop(&'a AccDirective, &'a ForLoop),
    Code(&'a crate::bytecode::RegionCode),
}

/// A loop nest under a `loop` directive, in either representation.
#[derive(Clone, Copy)]
pub(crate) enum DevLoopRef<'a> {
    Ast(&'a ForLoop),
    Code(&'a crate::bytecode::DevLoopNest),
}

/// A host-level directive body (data / host_data), in either representation.
#[derive(Clone, Copy)]
pub(crate) enum HostRef<'a> {
    Ast(&'a [Stmt]),
    Code(crate::bytecode::Chunk),
}

pub(crate) fn crash(e: impl std::fmt::Display) -> Abort {
    Abort::Crash(e.to_string())
}

/// A name the resolver never assigned a slot — the compile-time layout pass
/// and the interpreter disagree, which is an internal invariant break, not a
/// user error.
pub(crate) fn unresolved(name: &str) -> Abort {
    Abort::Crash(format!("internal error: unresolved name `{name}`"))
}

/// Lists up to this long live on the stack (see [`with_stack_list`]).
const INLINE_LIST: usize = 8;

/// Run `f` over `n` copies of `fill`: on the stack unless `n` exceeds
/// [`INLINE_LIST`], so the per-access subscripts, per-call arguments
/// and per-launch loop bounds the machine gathers allocate nothing.
pub(crate) fn with_stack_list<T: Copy, R>(n: usize, fill: T, f: impl FnOnce(&mut [T]) -> R) -> R {
    if n <= INLINE_LIST {
        f(&mut [fill; INLINE_LIST][..n])
    } else {
        f(&mut vec![fill; n])
    }
}

/// The element offset of `vals` in a device buffer with `dims`; a raw
/// `acc_malloc` buffer (no dims) takes one linear index.
#[inline]
pub(crate) fn dev_flat(base: &Name, vals: &[i64], dims: &[usize]) -> Exec<usize> {
    if dims.is_empty() {
        if vals.len() != 1 || vals[0] < 0 {
            return Err(Abort::Crash(format!("bad linear index on `{base}`")));
        }
        return Ok(vals[0] as usize);
    }
    flatten(base, vals, dims)
}

/// The row-major element offset of `vals` in an array with `dims` (none =
/// a scalar, one element). Inlined into both engines' element accesses;
/// its crashes are built out of line.
#[inline]
pub(crate) fn flatten(base: &Name, vals: &[i64], dims: &[usize]) -> Exec<usize> {
    let dims = if dims.is_empty() { &[1usize][..] } else { dims };
    if vals.len() != dims.len() {
        return Err(rank_mismatch(base, dims.len(), vals.len()));
    }
    let mut flat = 0usize;
    for (v, d) in vals.iter().zip(dims) {
        if *v < 0 || *v as usize >= *d {
            return Err(index_out_of_bounds(base, *v, *d));
        }
        flat = flat * d + *v as usize;
    }
    Ok(flat)
}

#[cold]
#[inline(never)]
fn rank_mismatch(base: &Name, rank: usize, given: usize) -> Abort {
    Abort::Crash(format!(
        "`{base}` has {rank} dimension(s), indexed with {given}"
    ))
}

#[cold]
#[inline(never)]
fn index_out_of_bounds(base: &Name, v: i64, extent: usize) -> Abort {
    Abort::Crash(format!(
        "index {v} out of bounds for `{base}` (extent {extent})"
    ))
}

fn is_mapping_clause(k: ClauseKind) -> bool {
    matches!(
        k,
        ClauseKind::Copy
            | ClauseKind::Copyin
            | ClauseKind::Copyout
            | ClauseKind::Create
            | ClauseKind::Present
            | ClauseKind::PresentOrCopy
            | ClauseKind::PresentOrCopyin
            | ClauseKind::PresentOrCopyout
            | ClauseKind::PresentOrCreate
            | ClauseKind::DeviceResident
    )
}

/// The base action of a possibly `present_or_` clause.
fn base_clause(k: ClauseKind) -> ClauseKind {
    match k {
        ClauseKind::PresentOrCopy => ClauseKind::Copy,
        ClauseKind::PresentOrCopyin => ClauseKind::Copyin,
        ClauseKind::PresentOrCopyout => ClauseKind::Copyout,
        ClauseKind::PresentOrCreate | ClauseKind::DeviceResident => ClauseKind::Create,
        other => other,
    }
}

/// Identity element matching the dynamic type of `like`.
fn identity_like(op: acc_spec::ReductionOp, like: Value) -> Value {
    match like {
        Value::Int(_) => Value::Int(op.int_identity()),
        Value::F32(_) => Value::F32(op.float_identity() as f32),
        Value::F64(_) => Value::F64(op.float_identity()),
        Value::DevPtr(_) => Value::Int(op.int_identity()),
    }
}

/// Combine two values under a reduction operator, preserving floatness.
fn combine(
    op: acc_spec::ReductionOp,
    a: Value,
    b: Value,
) -> Result<Value, acc_device::value::ValueError> {
    use acc_device::value::ValueError;
    if op.integer_only() {
        return Ok(Value::Int(op.combine_int(a.as_int()?, b.as_int()?)));
    }
    match Value::promoted(a, b)? {
        ScalarType::Int => Ok(Value::Int(op.combine_int(a.as_int()?, b.as_int()?))),
        ScalarType::Float => {
            let r = op.combine_float(a.as_f64()?, b.as_f64()?);
            Ok(Value::F32(r as f32))
        }
        ScalarType::Double => Ok(Value::F64(op.combine_float(a.as_f64()?, b.as_f64()?))),
    }
    .map_err(|e: ValueError| e)
}

#[inline]
pub(crate) fn apply_unop(op: UnOp, v: Value) -> Result<Value, acc_device::value::ValueError> {
    match op {
        UnOp::Neg => match v {
            // Wraps like `+ - *`: `-i64::MIN` is `i64::MIN` in every build.
            Value::Int(x) => Ok(Value::Int(x.wrapping_neg())),
            Value::F32(x) => Ok(Value::F32(-x)),
            Value::F64(x) => Ok(Value::F64(-x)),
            Value::DevPtr(_) => Err(acc_device::value::ValueError(
                "negation of device pointer".into(),
            )),
        },
        UnOp::Not => Ok(Value::Int((!v.truthy()) as i64)),
    }
}

/// `a op b` under C promotion, with a `ValueError` for what a C program
/// would trap on or cannot express. Two `Int`s go straight to
/// [`int_binop`]: promotion would only find that the result is an `Int`.
#[inline(always)]
pub(crate) fn apply_binop(
    op: BinOp,
    a: Value,
    b: Value,
) -> Result<Value, acc_device::value::ValueError> {
    if let (Value::Int(x), Value::Int(y)) = (a, b) {
        return int_binop(op, x, y);
    }
    apply_binop_general(op, a, b)
}

/// Integer `x op y`, the one definition of integer arithmetic: `+ - *`
/// wrap, comparisons and logic give 0 or 1, and `/` or `%` by zero, or of
/// `i64::MIN` by −1, is an error.
#[inline(always)]
fn int_binop(op: BinOp, x: i64, y: i64) -> Result<Value, acc_device::value::ValueError> {
    let v = match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => match x.checked_div(y) {
            Some(q) => q,
            None => return Err(int_division_error("division", y)),
        },
        BinOp::Rem => match x.checked_rem(y) {
            Some(r) => r,
            None => return Err(int_division_error("remainder", y)),
        },
        BinOp::Lt => (x < y) as i64,
        BinOp::Le => (x <= y) as i64,
        BinOp::Gt => (x > y) as i64,
        BinOp::Ge => (x >= y) as i64,
        BinOp::Eq => (x == y) as i64,
        BinOp::Ne => (x != y) as i64,
        BinOp::BitAnd => x & y,
        BinOp::BitOr => x | y,
        BinOp::BitXor => x ^ y,
        BinOp::And => (x != 0 && y != 0) as i64,
        BinOp::Or => (x != 0 || y != 0) as i64,
    };
    Ok(Value::Int(v))
}

/// `integer division by zero`, `integer remainder overflow`, …: built out
/// of line, so the inlined [`int_binop`] stays small.
#[cold]
#[inline(never)]
fn int_division_error(what: &str, divisor: i64) -> acc_device::value::ValueError {
    let why = if divisor == 0 { "by zero" } else { "overflow" };
    acc_device::value::ValueError(format!("integer {what} {why}"))
}

/// [`apply_binop`] for every pair but two `Int`s: pointer comparisons,
/// logic on any operands, then C promotion to a float type.
#[inline(never)]
fn apply_binop_general(
    op: BinOp,
    a: Value,
    b: Value,
) -> Result<Value, acc_device::value::ValueError> {
    use acc_device::value::ValueError;
    // Pointer equality comparisons are allowed (p == 0 null checks).
    if let (Value::DevPtr(x), bv) = (a, b) {
        if matches!(op, BinOp::Eq | BinOp::Ne) {
            let eq = match bv {
                Value::DevPtr(y) => x == y,
                Value::Int(0) => false,
                _ => false,
            };
            return Ok(Value::Int(((op == BinOp::Eq) == eq) as i64));
        }
    }
    match op {
        BinOp::And => return Ok(Value::Int((a.truthy() && b.truthy()) as i64)),
        BinOp::Or => return Ok(Value::Int((a.truthy() || b.truthy()) as i64)),
        _ => {}
    }
    match Value::promoted(a, b)? {
        // Only two `Int`s promote to `Int`.
        ScalarType::Int => int_binop(op, a.as_int()?, b.as_int()?),
        float_ty => {
            let (x, y) = (a.as_f64()?, b.as_f64()?);
            let wrap = |v: f64| -> Value {
                if float_ty == ScalarType::Float {
                    Value::F32(v as f32)
                } else {
                    Value::F64(v)
                }
            };
            let v = match op {
                BinOp::Add => wrap(x + y),
                BinOp::Sub => wrap(x - y),
                BinOp::Mul => wrap(x * y),
                BinOp::Div => wrap(x / y),
                BinOp::Rem => return Err(ValueError("% on floating operands".into())),
                BinOp::Lt => Value::Int((x < y) as i64),
                BinOp::Le => Value::Int((x <= y) as i64),
                BinOp::Gt => Value::Int((x > y) as i64),
                BinOp::Ge => Value::Int((x >= y) as i64),
                BinOp::Eq => Value::Int((x == y) as i64),
                BinOp::Ne => Value::Int((x != y) as i64),
                BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor => {
                    return Err(ValueError("bitwise op on floating operands".into()))
                }
                BinOp::And | BinOp::Or => unreachable!(),
            };
            Ok(v)
        }
    }
}

/// Names of the pure math intrinsics.
fn is_intrinsic_name(name: &str) -> bool {
    matches!(
        name,
        "powf"
            | "pow"
            | "fabsf"
            | "fabs"
            | "sqrtf"
            | "sqrt"
            | "abs"
            | "mod"
            | "iand"
            | "ior"
            | "ieor"
            | "min"
            | "max"
    )
}

/// Fortran's `mod(a, b)`, with one crash text wherever it runs.
fn int_mod(a: i64, b: i64) -> Exec<Value> {
    if b == 0 {
        return Err(Abort::Crash("mod by zero".into()));
    }
    a.checked_rem(b)
        .map(Value::Int)
        .ok_or_else(|| Abort::Crash("mod overflow".into()))
}

/// Pure intrinsics evaluable with already-computed argument values
/// (device-side call path).
fn eval_pure_intrinsic(name: &str, vals: &[Value]) -> Option<Exec<Value>> {
    if name == "mod" && vals.len() == 2 {
        let a = vals[0].as_int().map_err(crash);
        return Some(a.and_then(|a| int_mod(a, vals[1].as_int().map_err(crash)?)));
    }
    let one = |i: usize| -> Result<f64, acc_device::value::ValueError> { vals[i].as_f64() };
    let r = match name {
        "powf" if vals.len() == 2 => (|| Ok(Value::F32(one(0)?.powf(one(1)?) as f32)))(),
        "pow" if vals.len() == 2 => (|| Ok(Value::F64(one(0)?.powf(one(1)?))))(),
        "fabsf" if vals.len() == 1 => (|| Ok(Value::F32(one(0)?.abs() as f32)))(),
        "fabs" if vals.len() == 1 => (|| Ok(Value::F64(one(0)?.abs())))(),
        "sqrtf" if vals.len() == 1 => (|| Ok(Value::F32(one(0)?.sqrt() as f32)))(),
        "sqrt" if vals.len() == 1 => (|| Ok(Value::F64(one(0)?.sqrt())))(),
        // Wraps like unary minus: `abs(i64::MIN)` is `i64::MIN`.
        "abs" if vals.len() == 1 => vals[0].as_int().map(|v| Value::Int(v.wrapping_abs())),
        "iand" if vals.len() == 2 => (|| Ok(Value::Int(vals[0].as_int()? & vals[1].as_int()?)))(),
        "ior" if vals.len() == 2 => (|| Ok(Value::Int(vals[0].as_int()? | vals[1].as_int()?)))(),
        "ieor" if vals.len() == 2 => (|| Ok(Value::Int(vals[0].as_int()? ^ vals[1].as_int()?)))(),
        "min" if vals.len() == 2 => num_min_max(vals[0], vals[1], true),
        "max" if vals.len() == 2 => num_min_max(vals[0], vals[1], false),
        _ => return None,
    };
    Some(r.map_err(crash))
}

fn num_min_max(a: Value, b: Value, is_min: bool) -> Result<Value, acc_device::value::ValueError> {
    match Value::promoted(a, b)? {
        ScalarType::Int => {
            let (x, y) = (a.as_int()?, b.as_int()?);
            Ok(Value::Int(if is_min { x.min(y) } else { x.max(y) }))
        }
        ScalarType::Float => {
            let (x, y) = (a.as_f64()?, b.as_f64()?);
            Ok(Value::F32(
                (if is_min { x.min(y) } else { x.max(y) }) as f32,
            ))
        }
        ScalarType::Double => {
            let (x, y) = (a.as_f64()?, b.as_f64()?);
            Ok(Value::F64(if is_min { x.min(y) } else { x.max(y) }))
        }
    }
}

/// Named constants visible to generated programs.
pub(crate) fn device_constant(n: &str) -> Option<Value> {
    DeviceType::from_symbol(n).map(|d| Value::Int(d.encoding()))
}

fn stmt_dead(s: &Stmt) -> bool {
    match s {
        Stmt::Assign {
            op: None, value, ..
        } => {
            matches!(value, Expr::Index { .. } | Expr::Var(_))
        }
        Stmt::For(l) => l.body.iter().all(stmt_dead),
        Stmt::AccLoop { l, .. } => l.body.iter().all(stmt_dead),
        Stmt::DeclScalar { .. } => true,
        _ => false,
    }
}

/// The Fig. 11 dummy-loop test: every statement only copies data. An empty
/// region is trivially dead; anything that computes keeps the region alive.
/// (Shared with the lowering pass, which precomputes the verdict.)
pub(crate) fn stmts_all_dead(stmts: &[Stmt]) -> bool {
    stmts.iter().all(stmt_dead)
}

/// The Cray dead-region heuristic: a region is "dead" when every assignment
/// copies data without computing (no operators, no literals on the RHS) —
/// the Fig. 11 dummy-loop pattern.
fn region_is_dead(body: &RegionBody<'_>) -> bool {
    match body {
        RegionBody::Block(b) => stmts_all_dead(b),
        RegionBody::Loop(_, l) => stmts_all_dead(&l.body),
        RegionBody::Code(rc) => rc.dead,
    }
}

#[cfg(test)]
mod operator_tests;
