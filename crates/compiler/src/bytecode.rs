//! Lowering resolved programs to a flat, register-based bytecode.
//!
//! The tree walker in `exec` re-traverses the AST — matching on `Stmt` and
//! `Expr` nodes, chasing `Box` pointers, re-deciding static questions
//! (which slot? which crash message? short-circuit or not?) — on every
//! single iteration of every loop. This pass answers all of those
//! questions **once**, at compile time, producing a [`BytecodeProgram`]:
//! a flat `Vec<Instr>` over virtual registers, executed by the dispatch
//! loop in `vm`.
//!
//! ## Register model
//!
//! Variables keep their PR 3 [`FrameLayout`] slot indices: slot-addressed
//! instructions (`ReadVarH`, `SetLocal`, …) hit the same `Vec`-backed host
//! frames and device contexts the walker uses, so both engines observe one
//! store. Expression temporaries live in a per-chunk scratch register file
//! (`regs` in a [`Chunk`]), sized at lowering time with a per-statement
//! high-water mark and recycled from a pool per activation.
//!
//! ## Escape hatches
//!
//! Cold or environment-dependent constructs are not compiled; they escape
//! to the walker's own handlers via side tables carried on the program
//! (`HostStmt`/`DevStmt`/`EvalHostExpr`/`EvalDevExpr` for statements and
//! calls, `Standalone`/`Compute`/`DataRegion`/`HostDataRegion`/`DevLoopDir`
//! for directives). Directive handlers are *shared*, parameterized over the
//! body representation (`RegionBody`/`HostRef`/`DevLoopRef` in `exec`), so
//! every clause path — data mapping, reductions, privatization, async,
//! defect injection — runs the exact same code under both engines. The two
//! engines are byte-identical by construction, not by re-implementation.
//!
//! ## Launch-plan parameterization
//!
//! Nothing vendor-specific is baked into the instruction stream: gang,
//! worker, and vector geometry (and every defect knob) stay in the
//! [`ExecProfile`] consumed at run time by the shared region handler, so
//! one lowering per source serves every vendor and release, each of whose
//! executables carries its own profile.

use acc_ast::{
    AccClause, AccDirective, BinOp, Expr, ForLoop, LValue, Program, ScalarType, Stmt, Type, UnOp,
};
use acc_device::Value;
use acc_frontend::{FrameLayout, ResolvedProgram};
use acc_spec::DirectiveKind;
use acc_spec::FxHashMap;
use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::exec::{collect_expr_bases, collect_index_bases, stmts_all_dead};

/// Sentinel for "this name has no frame slot" (the resolver assigns slots
/// to every reachable name, so hitting it at run time is an internal
/// error — the same condition the walker maps to an `unresolved` crash).
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// Maximum index arity compiled inline; deeper index expressions (which the
/// generators never emit) escape to the walker.
const MAX_IDX: usize = 8;

/// One bytecode instruction. Register operands (`dst`, `src`, `a`, `b`,
/// `cond`, `idx`) index the chunk's scratch file; `slot` operands index the
/// current frame/device-context slot vector; the remaining `u32` operands
/// index the program's side tables.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Instr {
    // ---- shared (host and device chunks) ----
    /// `regs[dst] = consts[k]`
    Const { dst: u32, k: u32 },
    /// `regs[dst] = regs[src]`
    Copy { dst: u32, src: u32 },
    /// `regs[dst] = apply_unop(op, regs[src])`
    Unop { dst: u32, op: UnOp, src: u32 },
    /// `regs[dst] = apply_binop(op, regs[a], regs[b])`
    Binop { dst: u32, op: BinOp, a: u32, b: u32 },
    /// `regs[r] = Int(regs[r].as_int()?)` — the walker's `.as_int()` points.
    AsInt { r: u32 },
    /// `regs[r] = regs[r].convert_to(ty)?`
    ConvertTo { r: u32, ty: ScalarType },
    /// `regs[dst] = machine.garbage_value(ty)` (advances the garbage counter).
    Garbage { dst: u32, ty: ScalarType },
    /// Unconditional chunk-relative jump.
    Jump { to: u32 },
    /// Jump when `regs[cond]` is truthy.
    JumpIfTrue { cond: u32, to: u32 },
    /// Jump when `regs[cond]` is falsy.
    JumpIfFalse { cond: u32, to: u32 },
    /// Fused loop-head exit test: jump when `regs[a] >= regs[b]`. Both
    /// operands are `Int` by construction (the lowerer routes them through
    /// the int fast path), so this is the walker's raw `i64` compare.
    JumpIfGe { a: u32, b: u32, to: u32 },
    /// Crash with the fixed message `msgs[msg]` (lowering resolved the
    /// walker's error path statically).
    CrashMsg { msg: u32 },
    /// Crash "loop step must be positive, got {step}" when `regs[src] <= 0`.
    CheckStep { src: u32 },
    /// Return `regs[src]` from the current function chunk.
    Return { src: u32 },
    /// End of chunk (normal fall-through).
    End,

    // ---- host chunks ----
    /// Statement prologue: step budget + 1 clock cycle.
    TickHost,
    /// Loop-iteration prologue: step budget only (no clock advance).
    TickLoop,
    /// `regs[dst] = read_var_host_at(names[name], slot)`
    ReadVarH { dst: u32, name: u32, slot: u32 },
    /// `write_var_host_at(names[name], slot, regs[src])` (converts through
    /// the declared type).
    WriteVarH { src: u32, name: u32, slot: u32 },
    /// Array element read: `n` flat indices in `regs[idx..idx+n]`.
    ReadIdxH { dst: u32, name: u32, slot: u32, idx: u32, n: u8 },
    /// Array element write.
    WriteIdxH { src: u32, name: u32, slot: u32, idx: u32, n: u8 },
    /// Fused index load: `regs[dst] = Int(read_var_host_at(..).as_int()?)`.
    /// Emitted for plain-variable subscripts (`A[i]`), collapsing the
    /// `ReadVarH`/`AsInt`/`Copy` triple on the hottest array-access path.
    IdxVarH { dst: u32, name: u32, slot: u32 },
    /// Declaration store: writes both the slot value and its declared type.
    DeclStore { src: u32, slot: u32, ty: Type },
    /// Raw induction-variable store (no type conversion — mirrors the
    /// walker's direct `slots[i].val = Some(..)` in `exec_for_host`).
    SetSlot { slot: u32, src: u32 },
    /// Escape: evaluate `exprs[expr]` with the walker (`eval_host_with_hint`).
    EvalHostExpr { dst: u32, expr: u32, hint: ScalarType },
    /// Escape: execute `stmts[stmt]` with the walker (`exec_stmt_host`,
    /// which does its own tick).
    HostStmt { stmt: u32 },
    /// `exec_standalone(dirs[dir])` — update/wait/declare/cache.
    Standalone { dir: u32 },
    /// Launch the compute region `regions[region]` through the shared
    /// region handler.
    Compute { region: u32 },
    /// Run `blocks[block]` under the shared `data` region handler.
    DataRegion { block: u32 },
    /// Run `blocks[block]` under the shared `host_data` region handler.
    HostDataRegion { block: u32 },

    // ---- device chunks ----
    /// Device statement prologue: step budget + region cost.
    TickDev,
    /// `regs[dst] = read_scalar_device_at(names[name], slot, ctx)`
    ReadVarD { dst: u32, name: u32, slot: u32 },
    /// `write_scalar_device_at(names[name], slot, regs[src], ctx)`
    WriteVarD { src: u32, name: u32, slot: u32 },
    /// Device array element read (present table / deviceptr resolution).
    ReadIdxD { dst: u32, name: u32, idx: u32, n: u8 },
    /// Device array element write.
    WriteIdxD { src: u32, name: u32, idx: u32, n: u8 },
    /// Fused index load, device side (see [`Instr::IdxVarH`]).
    IdxVarD { dst: u32, name: u32, slot: u32 },
    /// `ctx.set_local(slot, regs[src])` — scope-journaled device binding.
    SetLocal { slot: u32, src: u32 },
    /// `metrics.device_iterations += 1`
    DevIter,
    /// Escape: evaluate `exprs[expr]` with the walker (`eval_device`).
    EvalDevExpr { dst: u32, expr: u32 },
    /// Escape: execute `stmts[stmt]` with the walker (`exec_stmt_device`).
    DevStmt { stmt: u32 },
    /// Run the loop-directive nest `nests[nest]` through the shared
    /// `exec_acc_loop_device` handler.
    DevLoopDir { nest: u32 },
}

/// A contiguous, `End`-terminated instruction range with its scratch
/// register requirement.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Chunk {
    /// Start offset in [`BytecodeProgram::code`]; jump targets inside the
    /// chunk are relative to this.
    pub(crate) start: u32,
    /// Scratch registers the chunk needs.
    pub(crate) regs: u32,
}

/// A lowered function body.
#[derive(Debug)]
pub(crate) struct FuncCode {
    pub(crate) name: String,
    pub(crate) chunk: Chunk,
}

/// The device-side representation of a compute region.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RegionDev {
    /// A structured `parallel`/`kernels` block: the body as a device chunk.
    Block(Chunk),
    /// A combined `parallel loop`/`kernels loop`: index into
    /// [`BytecodeProgram::nests`].
    Loop(u32),
}

/// A lowered compute region: everything `exec_compute_region` needs,
/// precomputed.
#[derive(Debug)]
pub(crate) struct RegionCode {
    /// The region directive (index into [`BytecodeProgram::dirs`]).
    pub(crate) dir: u32,
    /// Host fallback body (broken directive / `if(false)`): the exact
    /// equivalent of the walker's sequential execution of the body.
    pub(crate) host: Chunk,
    /// Device-side body.
    pub(crate) dev: RegionDev,
    /// Array names referenced in the body, sorted — drives the implicit
    /// `present_or_copy` mappings (order is observable behaviour).
    pub(crate) referenced: Vec<String>,
    /// Precomputed Fig. 11 dead-region verdict.
    pub(crate) dead: bool,
}

/// One loop of a (possibly collapsed) `loop`-directive nest: bounds stay as
/// expressions (evaluated per unit at run time, exactly like the walker).
#[derive(Debug)]
pub(crate) struct NestLoop {
    pub(crate) name: String,
    pub(crate) slot: Option<u32>,
    pub(crate) from: Expr,
    pub(crate) to: Expr,
    pub(crate) step: Expr,
}

/// A lowered `loop`-directive nest. `loops` holds the greedily gathered
/// tightly-nested chain up to the static `collapse` depth; `bodies[d-1]` is
/// the device chunk executed per selected iteration when collapsing `d`
/// loops (shallower bodies contain the remaining inner loops compiled
/// inline as sequential device loops — the walker's depth-1 semantics).
#[derive(Debug)]
pub(crate) struct DevLoopNest {
    /// The `loop` directive (index into [`BytecodeProgram::dirs`]).
    pub(crate) dir: u32,
    pub(crate) loops: Vec<NestLoop>,
    pub(crate) bodies: Vec<Chunk>,
}

/// A lowered `data`/`host_data` block: the directive plus its host body.
#[derive(Debug)]
pub(crate) struct HostBlock {
    pub(crate) dir: u32,
    pub(crate) chunk: Chunk,
}

/// A compiled program: one flat instruction stream plus the side tables the
/// escape hatches and directive instructions index into. Stored in the
/// executable (and in the source's compile-cache entry) as an
/// `Arc<BytecodeProgram>`, so a cache hit skips lowering entirely.
#[derive(Debug, Default)]
pub struct BytecodeProgram {
    pub(crate) consts: Vec<Value>,
    pub(crate) names: Vec<String>,
    pub(crate) msgs: Vec<String>,
    pub(crate) code: Vec<Instr>,
    pub(crate) funcs: Vec<FuncCode>,
    pub(crate) regions: Vec<RegionCode>,
    pub(crate) nests: Vec<DevLoopNest>,
    pub(crate) blocks: Vec<HostBlock>,
    pub(crate) dirs: Vec<AccDirective>,
    pub(crate) stmts: Vec<Stmt>,
    pub(crate) exprs: Vec<Expr>,
}

impl BytecodeProgram {
    /// The chunk of the named function.
    pub(crate) fn func_chunk(&self, name: &str) -> Option<Chunk> {
        self.funcs.iter().find(|f| f.name == name).map(|f| f.chunk)
    }

    /// A stable textual disassembly (the `accvv disasm` output): side
    /// tables first, then the instruction stream with absolute offsets.
    pub fn disassemble(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, ";; accvv bytecode v1");
        let _ = writeln!(
            s,
            ";; {} instrs, {} funcs, {} regions, {} nests, {} blocks",
            self.code.len(),
            self.funcs.len(),
            self.regions.len(),
            self.nests.len(),
            self.blocks.len()
        );
        if !self.consts.is_empty() {
            let _ = writeln!(s, "consts:");
            for (i, v) in self.consts.iter().enumerate() {
                let _ = writeln!(s, "  c{i} = {v:?}");
            }
        }
        if !self.names.is_empty() {
            let _ = writeln!(s, "names:");
            for (i, n) in self.names.iter().enumerate() {
                let _ = writeln!(s, "  n{i} = {n}");
            }
        }
        if !self.msgs.is_empty() {
            let _ = writeln!(s, "msgs:");
            for (i, m) in self.msgs.iter().enumerate() {
                let _ = writeln!(s, "  m{i} = {m:?}");
            }
        }
        if !self.dirs.is_empty() {
            let _ = writeln!(s, "dirs:");
            for (i, d) in self.dirs.iter().enumerate() {
                let _ = writeln!(s, "  d{i} = {d}");
            }
        }
        let _ = writeln!(s, "funcs:");
        for f in &self.funcs {
            let _ = writeln!(
                s,
                "  {}: @{} regs={}",
                f.name, f.chunk.start, f.chunk.regs
            );
        }
        if !self.regions.is_empty() {
            let _ = writeln!(s, "regions:");
            for (i, r) in self.regions.iter().enumerate() {
                let dev = match r.dev {
                    RegionDev::Block(c) => format!("block@{} regs={}", c.start, c.regs),
                    RegionDev::Loop(n) => format!("nest t{n}"),
                };
                let _ = writeln!(
                    s,
                    "  r{i}: dir=d{} host=@{} regs={} dev={} refs={:?} dead={}",
                    r.dir, r.host.start, r.host.regs, dev, r.referenced, r.dead
                );
            }
        }
        if !self.nests.is_empty() {
            let _ = writeln!(s, "nests:");
            for (i, n) in self.nests.iter().enumerate() {
                let loops: Vec<String> = n
                    .loops
                    .iter()
                    .map(|l| match l.slot {
                        Some(sl) => format!("{}@{}", l.name, sl),
                        None => format!("{}@none", l.name),
                    })
                    .collect();
                let bodies: Vec<String> = n
                    .bodies
                    .iter()
                    .map(|c| format!("@{} regs={}", c.start, c.regs))
                    .collect();
                let _ = writeln!(
                    s,
                    "  t{i}: dir=d{} loops=[{}] bodies=[{}]",
                    n.dir,
                    loops.join(", "),
                    bodies.join(", ")
                );
            }
        }
        if !self.blocks.is_empty() {
            let _ = writeln!(s, "blocks:");
            for (i, b) in self.blocks.iter().enumerate() {
                let _ = writeln!(
                    s,
                    "  b{i}: dir=d{} @{} regs={}",
                    b.dir, b.chunk.start, b.chunk.regs
                );
            }
        }
        let _ = writeln!(s, "code:");
        for (i, ins) in self.code.iter().enumerate() {
            let _ = writeln!(s, "  {i:04}  {ins:?}");
        }
        s
    }
}

/// An instruction buffer for one chunk under construction, with register
/// allocation (per-statement high-water mark) and jump patching.
struct ChunkBuf {
    code: Vec<Instr>,
    next: u32,
    maxr: u32,
}

impl ChunkBuf {
    fn new() -> Self {
        ChunkBuf {
            code: crate::arena::take_code(),
            next: 0,
            maxr: 0,
        }
    }

    fn alloc(&mut self) -> u32 {
        let r = self.next;
        self.next += 1;
        self.maxr = self.maxr.max(self.next);
        r
    }

    fn alloc_n(&mut self, n: u32) -> u32 {
        let r = self.next;
        self.next += n;
        self.maxr = self.maxr.max(self.next);
        r
    }

    /// Register watermark: statements are independent, so each body
    /// statement resets to the mark taken at its start (registers allocated
    /// outside the mark — loop headers — persist).
    fn mark(&self) -> u32 {
        self.next
    }

    fn reset(&mut self, m: u32) {
        self.next = m;
    }

    fn emit(&mut self, i: Instr) -> u32 {
        self.code.push(i);
        (self.code.len() - 1) as u32
    }

    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    fn patch(&mut self, at: u32, target: u32) {
        match &mut self.code[at as usize] {
            Instr::Jump { to }
            | Instr::JumpIfTrue { to, .. }
            | Instr::JumpIfFalse { to, .. }
            | Instr::JumpIfGe { to, .. } => *to = target,
            other => panic!("patch target is not a jump: {other:?}"),
        }
    }

    /// Append the buffered instructions (plus a terminating `End`) to the
    /// program's flat stream and return the chunk descriptor. The drained
    /// buffer goes back to the lowering arena.
    fn seal(mut self, code: &mut Vec<Instr>) -> Chunk {
        let start = code.len() as u32;
        code.append(&mut self.code);
        code.push(Instr::End);
        crate::arena::give_code(std::mem::take(&mut self.code));
        Chunk {
            start,
            regs: self.maxr,
        }
    }
}

/// True when the expression contains a call reachable through unary/binary
/// chains from the root — the only position where the walker's runtime
/// lvalue hint is observable (index subexpressions always evaluate with the
/// `Float` hint). Assignments to scalars with such values escape whole.
fn hinted_call(e: &Expr) -> bool {
    match e {
        Expr::Call { .. } => true,
        Expr::Unary(_, inner) => hinted_call(inner),
        Expr::Binary(_, l, r) => hinted_call(l) || hinted_call(r),
        _ => false,
    }
}

struct Lowerer<'p> {
    layout: &'p FrameLayout,
    bp: BytecodeProgram,
    /// `bp.names` by name, borrowing the program's own copies.
    name_ids: FxHashMap<&'p str, u32>,
}

/// Lower every function of `prog` to bytecode. Infallible: anything the
/// lowering does not model escapes to the walker, and compile-time-known
/// crash paths become `CrashMsg` instructions.
pub(crate) fn lower(prog: &Program, resolved: &ResolvedProgram) -> BytecodeProgram {
    let empty = FrameLayout::default();
    let mut lw = Lowerer {
        layout: &empty,
        bp: BytecodeProgram::default(),
        name_ids: FxHashMap::default(),
    };
    for f in &prog.functions {
        let layout = resolved.layout(&f.name);
        lw.layout = layout.unwrap_or(&empty);
        let mut buf = ChunkBuf::new();
        // A function without a layout is unreachable (call_function errors
        // first); its chunk stays empty.
        if layout.is_some() {
            lw.lower_body_h(&mut buf, &f.body);
        }
        let chunk = buf.seal(&mut lw.bp.code);
        lw.bp.funcs.push(FuncCode {
            name: f.name.clone(),
            chunk,
        });
    }
    lw.bp
}

impl<'p> Lowerer<'p> {
    // ---- side-table interning ----

    fn name_id(&mut self, n: &'p str) -> u32 {
        if let Some(&i) = self.name_ids.get(n) {
            return i;
        }
        let i = self.bp.names.len() as u32;
        self.bp.names.push(n.to_string());
        self.name_ids.insert(n, i);
        i
    }

    fn const_id(&mut self, v: Value) -> u32 {
        self.bp.consts.push(v);
        (self.bp.consts.len() - 1) as u32
    }

    fn add_dir(&mut self, d: &AccDirective) -> u32 {
        self.bp.dirs.push(d.clone());
        (self.bp.dirs.len() - 1) as u32
    }

    fn add_stmt(&mut self, s: &Stmt) -> u32 {
        self.bp.stmts.push(s.clone());
        (self.bp.stmts.len() - 1) as u32
    }

    fn add_expr(&mut self, e: &Expr) -> u32 {
        self.bp.exprs.push(e.clone());
        (self.bp.exprs.len() - 1) as u32
    }

    fn emit_crash(&mut self, buf: &mut ChunkBuf, msg: String) {
        self.bp.msgs.push(msg);
        let m = (self.bp.msgs.len() - 1) as u32;
        buf.emit(Instr::CrashMsg { msg: m });
    }

    fn emit_unresolved(&mut self, buf: &mut ChunkBuf, name: &str) {
        self.emit_crash(buf, format!("internal error: unresolved name `{name}`"));
    }

    fn slot_u32(&self, n: &str) -> u32 {
        match self.layout.slot(n) {
            Some(s) => s as u32,
            None => NO_SLOT,
        }
    }

    fn emit_const(&mut self, buf: &mut ChunkBuf, v: Value) -> u32 {
        let k = self.const_id(v);
        let dst = buf.alloc();
        buf.emit(Instr::Const { dst, k });
        dst
    }

    // ---- host statements ----

    fn lower_body_h(&mut self, buf: &mut ChunkBuf, body: &'p [Stmt]) {
        for s in body {
            let m = buf.mark();
            self.lower_stmt_h(buf, s);
            buf.reset(m);
        }
    }

    fn lower_stmt_h(&mut self, buf: &mut ChunkBuf, s: &'p Stmt) {
        match s {
            // Escapes: calls (runtime routines, user functions, deferred
            // effects), array declarations (arena allocation), and scalar
            // assignments whose value observes the runtime lvalue hint or
            // whose target exceeds the inline index arity.
            Stmt::Call { .. } | Stmt::DeclArray { .. } => {
                let i = self.add_stmt(s);
                buf.emit(Instr::HostStmt { stmt: i });
            }
            Stmt::Assign { target, op, value } => {
                let escape = match target {
                    LValue::Var(_) => hinted_call(value),
                    LValue::Index { indices, .. } => indices.len() > MAX_IDX,
                };
                if escape {
                    let i = self.add_stmt(s);
                    buf.emit(Instr::HostStmt { stmt: i });
                    return;
                }
                buf.emit(Instr::TickHost);
                // The hint only reaches calls chained through unary/binary
                // operators; those assignments escaped above, so `Float`
                // (the walker's default) is exact here.
                let rhs = self.lower_expr_h(buf, value, ScalarType::Float);
                match target {
                    LValue::Var(n) => {
                        let name = self.name_id(n);
                        let slot = self.slot_u32(n);
                        match op {
                            None => {
                                buf.emit(Instr::WriteVarH { src: rhs, name, slot });
                            }
                            Some(o) => {
                                let old = buf.alloc();
                                buf.emit(Instr::ReadVarH {
                                    dst: old,
                                    name,
                                    slot,
                                });
                                let dst = buf.alloc();
                                buf.emit(Instr::Binop {
                                    dst,
                                    op: *o,
                                    a: old,
                                    b: rhs,
                                });
                                buf.emit(Instr::WriteVarH { src: dst, name, slot });
                            }
                        }
                    }
                    LValue::Index { base, indices } => {
                        let name = self.name_id(base);
                        let slot = self.slot_u32(base);
                        let n = indices.len() as u8;
                        match op {
                            None => {
                                let idx = self.lower_index_block_h(buf, indices);
                                buf.emit(Instr::WriteIdxH {
                                    src: rhs,
                                    name,
                                    slot,
                                    idx,
                                    n,
                                });
                            }
                            Some(o) => {
                                let idx1 = self.lower_index_block_h(buf, indices);
                                let old = buf.alloc();
                                buf.emit(Instr::ReadIdxH {
                                    dst: old,
                                    name,
                                    slot,
                                    idx: idx1,
                                    n,
                                });
                                let dst = buf.alloc();
                                buf.emit(Instr::Binop {
                                    dst,
                                    op: *o,
                                    a: old,
                                    b: rhs,
                                });
                                // C semantics: the walker re-evaluates the
                                // index expressions for the write.
                                let idx2 = self.lower_index_block_h(buf, indices);
                                buf.emit(Instr::WriteIdxH {
                                    src: dst,
                                    name,
                                    slot,
                                    idx: idx2,
                                    n,
                                });
                            }
                        }
                    }
                }
            }
            Stmt::DeclScalar { name, ty, init } => {
                buf.emit(Instr::TickHost);
                let r = match init {
                    Some(e) => {
                        let r = self.lower_expr_h(buf, e, ty.scalar());
                        // Pointer declarations keep the raw value
                        // (DevPtr / null int); scalars convert.
                        if let Type::Scalar(t) = ty {
                            buf.emit(Instr::ConvertTo { r, ty: *t });
                        }
                        r
                    }
                    None => {
                        let r = buf.alloc();
                        buf.emit(Instr::Garbage {
                            dst: r,
                            ty: ty.scalar(),
                        });
                        r
                    }
                };
                match self.layout.slot(name) {
                    Some(slot) => {
                        buf.emit(Instr::DeclStore {
                            src: r,
                            slot: slot as u32,
                            ty: *ty,
                        });
                    }
                    None => self.emit_unresolved(buf, name),
                }
            }
            Stmt::For(l) => {
                buf.emit(Instr::TickHost);
                self.lower_for_h_core(buf, l);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                buf.emit(Instr::TickHost);
                let rc = self.lower_expr_h(buf, cond, ScalarType::Float);
                let jel = buf.emit(Instr::JumpIfFalse { cond: rc, to: 0 });
                self.lower_body_h(buf, then_body);
                let jend = buf.emit(Instr::Jump { to: 0 });
                let here = buf.here();
                buf.patch(jel, here);
                self.lower_body_h(buf, else_body);
                let here = buf.here();
                buf.patch(jend, here);
            }
            Stmt::Return(e) => {
                buf.emit(Instr::TickHost);
                let r = self.lower_expr_h(buf, e, ScalarType::Float);
                buf.emit(Instr::Return { src: r });
            }
            Stmt::AccBlock { dir, body } => {
                buf.emit(Instr::TickHost);
                match dir.kind {
                    DirectiveKind::Parallel | DirectiveKind::Kernels => {
                        let region = self.lower_region_block(dir, body);
                        buf.emit(Instr::Compute { region });
                    }
                    DirectiveKind::Data => {
                        let block = self.lower_host_block(dir, body);
                        buf.emit(Instr::DataRegion { block });
                    }
                    DirectiveKind::HostData => {
                        let block = self.lower_host_block(dir, body);
                        buf.emit(Instr::HostDataRegion { block });
                    }
                    other => {
                        self.emit_crash(buf, format!("`{}` cannot open a block", other.name()));
                    }
                }
            }
            Stmt::AccLoop { dir, l } => {
                buf.emit(Instr::TickHost);
                match dir.kind {
                    DirectiveKind::ParallelLoop | DirectiveKind::KernelsLoop => {
                        let region = self.lower_region_loop(dir, l);
                        buf.emit(Instr::Compute { region });
                    }
                    DirectiveKind::Loop => {
                        // Outside a compute construct the directive is a
                        // plain sequential host loop.
                        self.lower_for_h_core(buf, l);
                    }
                    other => {
                        self.emit_crash(buf, format!("`{}` cannot annotate a loop", other.name()));
                    }
                }
            }
            Stmt::AccStandalone { dir } => {
                buf.emit(Instr::TickHost);
                let d = self.add_dir(dir);
                buf.emit(Instr::Standalone { dir: d });
            }
        }
    }

    /// The counted-loop core, shared by `Stmt::For` (after its statement
    /// tick) and both host-loop fallbacks (`loop` outside compute, region
    /// host fallback), which the walker enters without a statement tick.
    /// Mirrors `exec_for_host`: bounds/step once, per-iteration tick before
    /// the re-evaluated upper bound, raw slot store of the induction value.
    fn lower_for_h_core(&mut self, buf: &mut ChunkBuf, l: &'p ForLoop) {
        let rf = self.lower_int_expr_h(buf, &l.from);
        let rs = self.lower_int_expr_h(buf, &l.step);
        buf.emit(Instr::CheckStep { src: rs });
        let Some(slot) = self.layout.slot(&l.var) else {
            self.emit_unresolved(buf, &l.var);
            return;
        };
        let ri = buf.alloc();
        buf.emit(Instr::Copy { dst: ri, src: rf });
        // A literal bound cannot change between iterations; its re-eval is a
        // side-effect-free register write, so it hoists out of the head.
        let hoisted = match &l.to {
            Expr::Int(v) => {
                let rt = buf.alloc();
                let k = self.const_id(Value::Int(*v));
                buf.emit(Instr::Const { dst: rt, k });
                Some(rt)
            }
            _ => None,
        };
        let head = buf.here();
        buf.emit(Instr::TickLoop);
        let rt = match hoisted {
            Some(rt) => rt,
            None => self.lower_int_expr_h(buf, &l.to),
        };
        let jexit = buf.emit(Instr::JumpIfGe { a: ri, b: rt, to: 0 });
        buf.emit(Instr::SetSlot {
            slot: slot as u32,
            src: ri,
        });
        self.lower_body_h(buf, &l.body);
        buf.emit(Instr::Binop {
            dst: ri,
            op: BinOp::Add,
            a: ri,
            b: rs,
        });
        buf.emit(Instr::Jump { to: head });
        let here = buf.here();
        buf.patch(jexit, here);
    }

    /// Lower an expression the walker immediately `.as_int()`s, yielding a
    /// register guaranteed to hold `Value::Int`. Plain variables fuse to a
    /// single `IdxVarH`, literals to a `Const`; anything else takes the
    /// general lowering followed by `AsInt` (same eval → as_int order).
    fn lower_int_expr_h(&mut self, buf: &mut ChunkBuf, e: &'p Expr) -> u32 {
        match e {
            Expr::Var(n) => {
                let dst = buf.alloc();
                let name = self.name_id(n);
                let slot = self.slot_u32(n);
                buf.emit(Instr::IdxVarH { dst, name, slot });
                dst
            }
            Expr::Int(v) => {
                let dst = buf.alloc();
                let k = self.const_id(Value::Int(*v));
                buf.emit(Instr::Const { dst, k });
                dst
            }
            _ => {
                let r = self.lower_expr_h(buf, e, ScalarType::Float);
                buf.emit(Instr::AsInt { r });
                r
            }
        }
    }

    /// Lower index expressions into `n` consecutive registers, each
    /// evaluated then integer-converted in sequence (the walker's
    /// per-index `eval → as_int` interleave, preserving crash order).
    fn lower_index_block_h(&mut self, buf: &mut ChunkBuf, indices: &'p [Expr]) -> u32 {
        let block = buf.alloc_n(indices.len() as u32);
        for (k, e) in indices.iter().enumerate() {
            let dst = block + k as u32;
            match e {
                // Fused fast paths for the dominant subscript shapes; the
                // eval-then-as_int order per index is unchanged.
                Expr::Var(n) => {
                    let name = self.name_id(n);
                    let slot = self.slot_u32(n);
                    buf.emit(Instr::IdxVarH { dst, name, slot });
                }
                Expr::Int(v) => {
                    let k = self.const_id(Value::Int(*v));
                    buf.emit(Instr::Const { dst, k });
                }
                _ => {
                    let r = self.lower_expr_h(buf, e, ScalarType::Float);
                    buf.emit(Instr::AsInt { r });
                    buf.emit(Instr::Copy { dst, src: r });
                }
            }
        }
        block
    }

    // ---- host expressions ----

    fn lower_expr_h(&mut self, buf: &mut ChunkBuf, e: &'p Expr, hint: ScalarType) -> u32 {
        match e {
            Expr::Int(v) => self.emit_const(buf, Value::Int(*v)),
            Expr::Real(v, t) => self.emit_const(
                buf,
                match t {
                    ScalarType::Float => Value::F32(*v as f32),
                    _ => Value::F64(*v),
                },
            ),
            Expr::SizeOf(t) => self.emit_const(buf, Value::Int(t.size_bytes() as i64)),
            Expr::Var(n) => {
                let name = self.name_id(n);
                let slot = self.slot_u32(n);
                let dst = buf.alloc();
                buf.emit(Instr::ReadVarH { dst, name, slot });
                dst
            }
            Expr::Index { base, indices } if indices.len() <= MAX_IDX => {
                // Index subexpressions always evaluate under the default
                // hint in the walker (`eval_host`).
                let idx = self.lower_index_block_h(buf, indices);
                let name = self.name_id(base);
                let slot = self.slot_u32(base);
                let dst = buf.alloc();
                buf.emit(Instr::ReadIdxH {
                    dst,
                    name,
                    slot,
                    idx,
                    n: indices.len() as u8,
                });
                dst
            }
            Expr::Index { .. } | Expr::Call { .. } => {
                // Escapes: calls keep their full walker semantics (runtime
                // dispatch, intrinsics, user functions, malloc hint), deep
                // index expressions skip the fixed-arity fast path.
                let id = self.add_expr(e);
                let dst = buf.alloc();
                buf.emit(Instr::EvalHostExpr {
                    dst,
                    expr: id,
                    hint,
                });
                dst
            }
            Expr::Unary(op, inner) => {
                let src = self.lower_expr_h(buf, inner, hint);
                let dst = buf.alloc();
                buf.emit(Instr::Unop { dst, op: *op, src });
                dst
            }
            Expr::Binary(op, l, r) => {
                let a = self.lower_expr_h(buf, l, hint);
                match op {
                    BinOp::And => {
                        let dst = self.emit_const(buf, Value::Int(0));
                        let jend = buf.emit(Instr::JumpIfFalse { cond: a, to: 0 });
                        let b = self.lower_expr_h(buf, r, hint);
                        buf.emit(Instr::Binop {
                            dst,
                            op: BinOp::And,
                            a,
                            b,
                        });
                        let here = buf.here();
                        buf.patch(jend, here);
                        dst
                    }
                    BinOp::Or => {
                        let dst = self.emit_const(buf, Value::Int(1));
                        let jend = buf.emit(Instr::JumpIfTrue { cond: a, to: 0 });
                        let b = self.lower_expr_h(buf, r, hint);
                        buf.emit(Instr::Binop {
                            dst,
                            op: BinOp::Or,
                            a,
                            b,
                        });
                        let here = buf.here();
                        buf.patch(jend, here);
                        dst
                    }
                    _ => {
                        let b = self.lower_expr_h(buf, r, hint);
                        let dst = buf.alloc();
                        buf.emit(Instr::Binop {
                            dst,
                            op: *op,
                            a,
                            b,
                        });
                        dst
                    }
                }
            }
        }
    }

    // ---- regions / directive bodies ----

    fn lower_region_block(&mut self, dir: &'p AccDirective, body: &'p [Stmt]) -> u32 {
        let dir_id = self.add_dir(dir);
        let mut hbuf = ChunkBuf::new();
        self.lower_body_h(&mut hbuf, body);
        let host = hbuf.seal(&mut self.bp.code);
        let dev = RegionDev::Block(self.lower_dev_chunk(body));
        let mut refs = BTreeSet::new();
        collect_index_bases(body, &mut refs);
        self.bp.regions.push(RegionCode {
            dir: dir_id,
            host,
            dev,
            referenced: refs.into_iter().collect(),
            dead: stmts_all_dead(body),
        });
        (self.bp.regions.len() - 1) as u32
    }

    fn lower_region_loop(&mut self, dir: &'p AccDirective, l: &'p ForLoop) -> u32 {
        let dir_id = self.add_dir(dir);
        // Host fallback of a combined construct is a bare counted loop
        // (`exec_for_host` — no statement tick).
        let mut hbuf = ChunkBuf::new();
        self.lower_for_h_core(&mut hbuf, l);
        let host = hbuf.seal(&mut self.bp.code);
        let nest = self.lower_nest(dir_id, dir, l);
        let mut refs = BTreeSet::new();
        collect_expr_bases(&l.from, &mut refs);
        collect_expr_bases(&l.to, &mut refs);
        collect_index_bases(&l.body, &mut refs);
        self.bp.regions.push(RegionCode {
            dir: dir_id,
            host,
            dev: RegionDev::Loop(nest),
            referenced: refs.into_iter().collect(),
            dead: stmts_all_dead(&l.body),
        });
        (self.bp.regions.len() - 1) as u32
    }

    fn lower_host_block(&mut self, dir: &'p AccDirective, body: &'p [Stmt]) -> u32 {
        let dir_id = self.add_dir(dir);
        let mut buf = ChunkBuf::new();
        self.lower_body_h(&mut buf, body);
        let chunk = buf.seal(&mut self.bp.code);
        self.bp.blocks.push(HostBlock { dir: dir_id, chunk });
        (self.bp.blocks.len() - 1) as u32
    }

    /// Lower a `loop`-directive nest. The gather depth is the *static*
    /// `collapse` argument; the runtime depth (after clause filtering and
    /// collapse defects) is 1 or that value, so a body chunk exists for
    /// every depth the shared handler can request. A nest shallower than
    /// the static collapse is left short — the runtime check reproduces the
    /// walker's "collapse requires tightly nested loops" crash.
    fn lower_nest(&mut self, dir_id: u32, dir: &'p AccDirective, l: &'p ForLoop) -> u32 {
        let static_n = dir
            .clauses
            .iter()
            .find_map(|c| match c {
                AccClause::Collapse(e) => e.const_int(),
                _ => None,
            })
            .unwrap_or(1)
            .max(1) as usize;
        let mut loops: Vec<&ForLoop> = vec![l];
        let mut body: &[Stmt] = &l.body;
        for _ in 1..static_n {
            match body {
                [Stmt::For(inner)] => {
                    loops.push(inner);
                    body = &inner.body;
                }
                _ => break,
            }
        }
        let nest_loops: Vec<NestLoop> = loops
            .iter()
            .map(|lp| NestLoop {
                name: lp.var.clone(),
                slot: self.layout.slot(&lp.var).map(|s| s as u32),
                from: lp.from.clone(),
                to: lp.to.clone(),
                step: lp.step.clone(),
            })
            .collect();
        let bodies: Vec<Chunk> = loops
            .iter()
            .map(|lp| self.lower_dev_chunk(&lp.body))
            .collect();
        self.bp.nests.push(DevLoopNest {
            dir: dir_id,
            loops: nest_loops,
            bodies,
        });
        (self.bp.nests.len() - 1) as u32
    }

    // ---- device statements ----

    fn lower_dev_chunk(&mut self, body: &'p [Stmt]) -> Chunk {
        let mut buf = ChunkBuf::new();
        self.lower_body_d(&mut buf, body);
        buf.seal(&mut self.bp.code)
    }

    fn lower_body_d(&mut self, buf: &mut ChunkBuf, body: &'p [Stmt]) {
        for s in body {
            let m = buf.mark();
            self.lower_stmt_d(buf, s);
            buf.reset(m);
        }
    }

    fn lower_stmt_d(&mut self, buf: &mut ChunkBuf, s: &'p Stmt) {
        match s {
            // Escapes: device calls (acc_on_device, intrinsic/user
            // rejection) and over-arity index targets. `exec_stmt_device`
            // does its own tick and region-cost accounting.
            Stmt::Call { .. } => {
                let i = self.add_stmt(s);
                buf.emit(Instr::DevStmt { stmt: i });
            }
            Stmt::Assign { target, op, value } => {
                if matches!(target, LValue::Index { indices, .. } if indices.len() > MAX_IDX) {
                    let i = self.add_stmt(s);
                    buf.emit(Instr::DevStmt { stmt: i });
                    return;
                }
                buf.emit(Instr::TickDev);
                let rhs = self.lower_expr_d(buf, value);
                match target {
                    LValue::Var(n) => {
                        let name = self.name_id(n);
                        let slot = self.slot_u32(n);
                        match op {
                            None => {
                                buf.emit(Instr::WriteVarD { src: rhs, name, slot });
                            }
                            Some(o) => {
                                let old = buf.alloc();
                                buf.emit(Instr::ReadVarD {
                                    dst: old,
                                    name,
                                    slot,
                                });
                                let dst = buf.alloc();
                                buf.emit(Instr::Binop {
                                    dst,
                                    op: *o,
                                    a: old,
                                    b: rhs,
                                });
                                buf.emit(Instr::WriteVarD { src: dst, name, slot });
                            }
                        }
                    }
                    LValue::Index { base, indices } => {
                        let name = self.name_id(base);
                        let n = indices.len() as u8;
                        match op {
                            None => {
                                let idx = self.lower_index_block_d(buf, indices);
                                buf.emit(Instr::WriteIdxD {
                                    src: rhs,
                                    name,
                                    idx,
                                    n,
                                });
                            }
                            Some(o) => {
                                let idx1 = self.lower_index_block_d(buf, indices);
                                let old = buf.alloc();
                                buf.emit(Instr::ReadIdxD {
                                    dst: old,
                                    name,
                                    idx: idx1,
                                    n,
                                });
                                let dst = buf.alloc();
                                buf.emit(Instr::Binop {
                                    dst,
                                    op: *o,
                                    a: old,
                                    b: rhs,
                                });
                                let idx2 = self.lower_index_block_d(buf, indices);
                                buf.emit(Instr::WriteIdxD {
                                    src: dst,
                                    name,
                                    idx: idx2,
                                    n,
                                });
                            }
                        }
                    }
                }
            }
            Stmt::DeclScalar { name, ty, init } => {
                buf.emit(Instr::TickDev);
                let r = match init {
                    Some(e) => {
                        let r = self.lower_expr_d(buf, e);
                        // Device declarations always convert (no pointer
                        // exemption on this path).
                        buf.emit(Instr::ConvertTo { r, ty: ty.scalar() });
                        r
                    }
                    None => {
                        let r = buf.alloc();
                        buf.emit(Instr::Garbage {
                            dst: r,
                            ty: ty.scalar(),
                        });
                        r
                    }
                };
                match self.layout.slot(name) {
                    Some(slot) => {
                        buf.emit(Instr::SetLocal {
                            slot: slot as u32,
                            src: r,
                        });
                    }
                    None => self.emit_unresolved(buf, name),
                }
            }
            Stmt::DeclArray { .. } => {
                buf.emit(Instr::TickDev);
                self.emit_crash(
                    buf,
                    "array declarations inside compute regions are not supported".into(),
                );
            }
            Stmt::For(l) => {
                buf.emit(Instr::TickDev);
                self.lower_for_d_core(buf, l);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                buf.emit(Instr::TickDev);
                let rc = self.lower_expr_d(buf, cond);
                let jel = buf.emit(Instr::JumpIfFalse { cond: rc, to: 0 });
                self.lower_body_d(buf, then_body);
                let jend = buf.emit(Instr::Jump { to: 0 });
                let here = buf.here();
                buf.patch(jel, here);
                self.lower_body_d(buf, else_body);
                let here = buf.here();
                buf.patch(jend, here);
            }
            Stmt::Return(_) => {
                buf.emit(Instr::TickDev);
                self.emit_crash(buf, "return inside a compute region is not supported".into());
            }
            Stmt::AccLoop { dir, l } => {
                buf.emit(Instr::TickDev);
                let dir_id = self.add_dir(dir);
                let nest = self.lower_nest(dir_id, dir, l);
                buf.emit(Instr::DevLoopDir { nest });
            }
            Stmt::AccBlock { dir, .. } => {
                buf.emit(Instr::TickDev);
                self.emit_crash(
                    buf,
                    format!(
                        "nested `{}` regions inside compute constructs are not supported in 1.0",
                        dir.kind.name()
                    ),
                );
            }
            Stmt::AccStandalone { dir } => {
                buf.emit(Instr::TickDev);
                match dir.kind {
                    DirectiveKind::Cache => {}
                    other => self.emit_crash(
                        buf,
                        format!("`{}` directive inside a compute region", other.name()),
                    ),
                }
            }
        }
    }

    /// A sequential device loop (`exec_for_device` with every iteration
    /// selected — the unannotated-loop, gang-redundant case): bounds
    /// evaluated once up front, no per-iteration tick.
    fn lower_for_d_core(&mut self, buf: &mut ChunkBuf, l: &'p ForLoop) {
        let rf = self.lower_int_expr_d(buf, &l.from);
        let rt = self.lower_int_expr_d(buf, &l.to);
        let rs = self.lower_int_expr_d(buf, &l.step);
        buf.emit(Instr::CheckStep { src: rs });
        let Some(slot) = self.layout.slot(&l.var) else {
            self.emit_unresolved(buf, &l.var);
            return;
        };
        let ri = buf.alloc();
        buf.emit(Instr::Copy { dst: ri, src: rf });
        let head = buf.here();
        // `while i < to` exits on `i >= to` — the same fused compare as the
        // host loop (operands are `Int` by construction).
        let jexit = buf.emit(Instr::JumpIfGe { a: ri, b: rt, to: 0 });
        buf.emit(Instr::SetLocal {
            slot: slot as u32,
            src: ri,
        });
        buf.emit(Instr::DevIter);
        self.lower_body_d(buf, &l.body);
        buf.emit(Instr::Binop {
            dst: ri,
            op: BinOp::Add,
            a: ri,
            b: rs,
        });
        buf.emit(Instr::Jump { to: head });
        let here = buf.here();
        buf.patch(jexit, here);
    }

    /// Device-side twin of [`Self::lower_int_expr_h`].
    fn lower_int_expr_d(&mut self, buf: &mut ChunkBuf, e: &'p Expr) -> u32 {
        match e {
            Expr::Var(n) => {
                let dst = buf.alloc();
                let name = self.name_id(n);
                let slot = self.slot_u32(n);
                buf.emit(Instr::IdxVarD { dst, name, slot });
                dst
            }
            Expr::Int(v) => {
                let dst = buf.alloc();
                let k = self.const_id(Value::Int(*v));
                buf.emit(Instr::Const { dst, k });
                dst
            }
            _ => {
                let r = self.lower_expr_d(buf, e);
                buf.emit(Instr::AsInt { r });
                r
            }
        }
    }

    fn lower_index_block_d(&mut self, buf: &mut ChunkBuf, indices: &'p [Expr]) -> u32 {
        let block = buf.alloc_n(indices.len() as u32);
        for (k, e) in indices.iter().enumerate() {
            let dst = block + k as u32;
            match e {
                Expr::Var(n) => {
                    let name = self.name_id(n);
                    let slot = self.slot_u32(n);
                    buf.emit(Instr::IdxVarD { dst, name, slot });
                }
                Expr::Int(v) => {
                    let k = self.const_id(Value::Int(*v));
                    buf.emit(Instr::Const { dst, k });
                }
                _ => {
                    let r = self.lower_expr_d(buf, e);
                    buf.emit(Instr::AsInt { r });
                    buf.emit(Instr::Copy { dst, src: r });
                }
            }
        }
        block
    }

    // ---- device expressions ----

    fn lower_expr_d(&mut self, buf: &mut ChunkBuf, e: &'p Expr) -> u32 {
        match e {
            Expr::Int(v) => self.emit_const(buf, Value::Int(*v)),
            Expr::Real(v, t) => self.emit_const(
                buf,
                match t {
                    ScalarType::Float => Value::F32(*v as f32),
                    _ => Value::F64(*v),
                },
            ),
            Expr::SizeOf(t) => self.emit_const(buf, Value::Int(t.size_bytes() as i64)),
            Expr::Var(n) => {
                let name = self.name_id(n);
                let slot = self.slot_u32(n);
                let dst = buf.alloc();
                buf.emit(Instr::ReadVarD { dst, name, slot });
                dst
            }
            Expr::Index { base, indices } if indices.len() <= MAX_IDX => {
                let idx = self.lower_index_block_d(buf, indices);
                let name = self.name_id(base);
                let dst = buf.alloc();
                buf.emit(Instr::ReadIdxD {
                    dst,
                    name,
                    idx,
                    n: indices.len() as u8,
                });
                dst
            }
            Expr::Index { .. } | Expr::Call { .. } => {
                let id = self.add_expr(e);
                let dst = buf.alloc();
                buf.emit(Instr::EvalDevExpr { dst, expr: id });
                dst
            }
            Expr::Unary(op, inner) => {
                let src = self.lower_expr_d(buf, inner);
                let dst = buf.alloc();
                buf.emit(Instr::Unop { dst, op: *op, src });
                dst
            }
            Expr::Binary(op, l, r) => {
                let a = self.lower_expr_d(buf, l);
                match op {
                    BinOp::And => {
                        let dst = self.emit_const(buf, Value::Int(0));
                        let jend = buf.emit(Instr::JumpIfFalse { cond: a, to: 0 });
                        let b = self.lower_expr_d(buf, r);
                        buf.emit(Instr::Binop {
                            dst,
                            op: BinOp::And,
                            a,
                            b,
                        });
                        let here = buf.here();
                        buf.patch(jend, here);
                        dst
                    }
                    BinOp::Or => {
                        let dst = self.emit_const(buf, Value::Int(1));
                        let jend = buf.emit(Instr::JumpIfTrue { cond: a, to: 0 });
                        let b = self.lower_expr_d(buf, r);
                        buf.emit(Instr::Binop {
                            dst,
                            op: BinOp::Or,
                            a,
                            b,
                        });
                        let here = buf.here();
                        buf.patch(jend, here);
                        dst
                    }
                    _ => {
                        let b = self.lower_expr_d(buf, r);
                        let dst = buf.alloc();
                        buf.emit(Instr::Binop {
                            dst,
                            op: *op,
                            a,
                            b,
                        });
                        dst
                    }
                }
            }
        }
    }
}
