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
//! for directives). The tables copy no AST: each entry is a [`Node`], the
//! address of the escaped node inside the program the image keeps alive,
//! so an escape reaches its node with one load. Directive handlers are
//! *shared*, parameterized over the body representation
//! (`RegionBody`/`HostRef`/`DevLoopRef` in `exec`), so every clause path —
//! data mapping, reductions, privatization, async, defect injection — runs
//! the exact same code under both engines. A compute region's host
//! fallback (an ignored directive, a false `if`) is not lowered at all: it
//! runs the region's statements on the walker, like any other escape. The
//! two engines are byte-identical by construction, not by
//! re-implementation.
//!
//! ## One lowering for both chunk kinds
//!
//! Expressions, subscripts, assignments and `if` lower once, for a `Side`
//! (host or device) that picks the instruction wherever the two chunk
//! kinds differ: the statement tick, variable reads and writes, the fused
//! index load, element reads and writes (a device element has no slot
//! operand), and the expression and statement escapes. Declarations,
//! loops, `return`, calls and directives still lower apart
//! (`lower_stmt_h`/`lower_stmt_d`, `lower_for_h_core`/`lower_for_d_core`).
//!
//! ## Launch-plan parameterization
//!
//! Nothing vendor-specific is baked into the instruction stream: gang,
//! worker, and vector geometry (and every defect knob) stay in the
//! [`ExecProfile`] consumed at run time by the shared region handler, so
//! one lowering per source serves every vendor and release, each of whose
//! executables carries its own profile.

use acc_ast::{
    AccClause, AccDirective, BinOp, Expr, ForLoop, LValue, Name, Program, ScalarType, Stmt, Type,
    UnOp,
};
use acc_device::Value;
use acc_frontend::{FrameLayout, ResolvedProgram};
use acc_spec::DirectiveKind;
use std::fmt::Write as _;
use std::ptr::NonNull;
use std::sync::Arc;

use crate::exec::{push_region_arrays, stmts_all_dead};

/// Sentinel for "this name has no frame slot" (the resolver assigns slots
/// to every reachable name, so hitting it at run time is an internal
/// error — the same condition the walker maps to an `unresolved` crash).
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// A name id not assigned yet (see [`Lowerer::var`]).
const NO_NAME: u32 = u32::MAX;

/// Maximum index arity compiled inline; deeper index expressions (which the
/// generators never emit) escape to the walker.
const MAX_IDX: usize = 8;

/// The address of one node of the [`Program`] an image was lowered from,
/// dereferenced through that image ([`BytecodeProgram::node`]).
///
/// The image holds a clone of the program's `Arc`, and a program behind an
/// `Arc` is never mutated, so the node stays at this address, unchanged,
/// for as long as the image lives. In debug builds a node also records the
/// program it was taken from, and dereferencing it through another image
/// panics.
pub(crate) struct Node<T: ?Sized> {
    ptr: NonNull<T>,
    #[cfg(debug_assertions)]
    origin: *const Program,
}

impl<T: ?Sized> Node<T> {
    fn new(node: &T, origin: &Program) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = origin;
        Node {
            ptr: NonNull::from(node),
            #[cfg(debug_assertions)]
            origin,
        }
    }
}

impl<T: ?Sized> Clone for Node<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: ?Sized> Copy for Node<T> {}

impl<T: ?Sized> std::fmt::Debug for Node<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Node({:p})", self.ptr)
    }
}

// SAFETY: `ptr` grants nothing but shared access to a `T` that is never
// mutated (see `BytecodeProgram::node`), which is what `&T` grants, and
// `&T` is `Send` and `Sync` exactly when `T: Sync`; `origin` (debug builds)
// is only compared, never dereferenced.
unsafe impl<T: ?Sized + Sync> Send for Node<T> {}
// SAFETY: as for `Send` above.
unsafe impl<T: ?Sized + Sync> Sync for Node<T> {}

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
    ReadIdxH {
        dst: u32,
        name: u32,
        slot: u32,
        idx: u32,
        n: u8,
    },
    /// Array element write.
    WriteIdxH {
        src: u32,
        name: u32,
        slot: u32,
        idx: u32,
        n: u8,
    },
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
    EvalHostExpr {
        dst: u32,
        expr: u32,
        hint: ScalarType,
    },
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
    ReadIdxD {
        dst: u32,
        name: u32,
        idx: u32,
        n: u8,
    },
    /// Device array element write.
    WriteIdxD {
        src: u32,
        name: u32,
        idx: u32,
        n: u8,
    },
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
    pub(crate) name: Name,
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

/// The statements of a compute region, which its host fallback (broken
/// directive / `if(false)`) runs on the walker.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RegionAst {
    /// A `parallel`/`kernels` block's body.
    Block(Node<[Stmt]>),
    /// A combined construct's loop.
    Loop(Node<ForLoop>),
}

/// A lowered compute region: everything `exec_compute_region` needs,
/// precomputed.
#[derive(Debug)]
pub(crate) struct RegionCode {
    /// The region directive (index into [`BytecodeProgram::dirs`]).
    pub(crate) dir: u32,
    /// The region's statements, for the host fallback.
    pub(crate) ast: RegionAst,
    /// Device-side body.
    pub(crate) dev: RegionDev,
    /// Where [`BytecodeProgram::region_arrays`] finds the array names
    /// referenced in the body, sorted — they drive the implicit
    /// `present_or_copy` mappings (order is observable behaviour).
    arrays: Span,
    /// Precomputed Fig. 11 dead-region verdict.
    pub(crate) dead: bool,
}

/// A run of entries in one of the image's shared tables.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn of<T>(table: &[T], start: usize) -> Span {
        Span {
            start: start as u32,
            len: (table.len() - start) as u32,
        }
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// One loop of a (possibly collapsed) `loop`-directive nest: bounds stay as
/// the loop's own expressions (evaluated per unit at run time, exactly
/// like the walker).
#[derive(Debug)]
pub(crate) struct NestLoop {
    pub(crate) l: Node<ForLoop>,
    pub(crate) slot: Option<u32>,
    /// The device chunk executed per selected iteration when the nest
    /// collapses down to this loop (an outer loop's body contains the
    /// remaining inner loops compiled inline as sequential device loops —
    /// the walker's depth-1 semantics).
    pub(crate) body: Chunk,
}

/// A lowered `loop`-directive nest: the greedily gathered tightly-nested
/// chain of loops up to the static `collapse` depth, outermost first, in
/// [`BytecodeProgram::nest_loops`].
#[derive(Debug)]
pub(crate) struct DevLoopNest {
    /// The `loop` directive (index into [`BytecodeProgram::dirs`]).
    pub(crate) dir: u32,
    loops: Span,
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
#[derive(Debug)]
pub struct BytecodeProgram {
    /// The program lowered, which the [`Node`] tables point into.
    program: Arc<Program>,
    pub(crate) consts: Vec<Value>,
    pub(crate) names: Vec<Name>,
    pub(crate) msgs: Vec<String>,
    pub(crate) code: Vec<Instr>,
    pub(crate) funcs: Vec<FuncCode>,
    pub(crate) regions: Vec<RegionCode>,
    pub(crate) nests: Vec<DevLoopNest>,
    loops: Vec<NestLoop>,
    arrays: Vec<Name>,
    pub(crate) blocks: Vec<HostBlock>,
    dirs: Vec<Node<AccDirective>>,
    stmts: Vec<Node<Stmt>>,
    exprs: Vec<Node<Expr>>,
}

impl BytecodeProgram {
    fn new(program: Arc<Program>) -> Self {
        BytecodeProgram {
            program,
            consts: Vec::new(),
            names: Vec::new(),
            msgs: Vec::new(),
            code: Vec::new(),
            funcs: Vec::new(),
            regions: Vec::new(),
            nests: Vec::new(),
            loops: Vec::new(),
            arrays: Vec::new(),
            blocks: Vec::new(),
            dirs: Vec::new(),
            stmts: Vec::new(),
            exprs: Vec::new(),
        }
    }

    /// The program this image was lowered from.
    pub(crate) fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The node `n` refers to, borrowed from this image.
    #[inline]
    pub(crate) fn node<T: ?Sized>(&self, n: Node<T>) -> &T {
        #[cfg(debug_assertions)]
        assert!(
            std::ptr::eq(n.origin, Arc::as_ptr(&self.program)),
            "a node dereferenced through an image of another program"
        );
        // SAFETY: lowering took `n` from a shared borrow of `*self.program`
        // (the debug check above confirms it in debug builds), so it
        // points at a node owned, through `Vec` buffers and `Box`es, by
        // that program. `self.program` keeps the program alive while
        // `self` is borrowed, which bounds the returned lifetime. Nothing
        // mutates it meanwhile: this `Arc` is a second owner, so neither
        // `Arc::get_mut` nor `Arc::make_mut` can hand out `&mut Program`
        // in place, and the AST has no interior mutability. The node thus
        // stays valid, where it was, and is only ever shared.
        unsafe { n.ptr.as_ref() }
    }

    /// The loops of `nest`, outermost first.
    pub(crate) fn nest_loops(&self, nest: &DevLoopNest) -> &[NestLoop] {
        &self.loops[nest.loops.range()]
    }

    /// The array names `region` references, sorted.
    pub(crate) fn region_arrays(&self, region: &RegionCode) -> &[Name] {
        &self.arrays[region.arrays.range()]
    }

    /// The directive `dirs[i]`.
    #[inline]
    pub(crate) fn dir(&self, i: u32) -> &AccDirective {
        self.node(self.dirs[i as usize])
    }

    /// The escaped statement `stmts[i]`.
    #[inline]
    pub(crate) fn stmt(&self, i: u32) -> &Stmt {
        self.node(self.stmts[i as usize])
    }

    /// The escaped expression `exprs[i]`.
    #[inline]
    pub(crate) fn expr(&self, i: u32) -> &Expr {
        self.node(self.exprs[i as usize])
    }

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
            for (i, &d) in self.dirs.iter().enumerate() {
                let _ = writeln!(s, "  d{i} = {}", self.node(d));
            }
        }
        let _ = writeln!(s, "funcs:");
        for f in &self.funcs {
            let _ = writeln!(s, "  {}: @{} regs={}", f.name, f.chunk.start, f.chunk.regs);
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
                    "  r{i}: dir=d{} dev={} refs={:?} dead={}",
                    r.dir,
                    dev,
                    self.region_arrays(r),
                    r.dead
                );
            }
        }
        if !self.nests.is_empty() {
            let _ = writeln!(s, "nests:");
            for (i, n) in self.nests.iter().enumerate() {
                let loops: Vec<String> = self
                    .nest_loops(n)
                    .iter()
                    .map(|l| {
                        let var = &self.node(l.l).var;
                        match l.slot {
                            Some(sl) => format!("{var}@{sl}"),
                            None => format!("{var}@none"),
                        }
                    })
                    .collect();
                let bodies: Vec<String> = self
                    .nest_loops(n)
                    .iter()
                    .map(|l| format!("@{} regs={}", l.body.start, l.body.regs))
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

    /// `regs[dst] = regs[a] op regs[b]` into a fresh register `dst`.
    fn binop(&mut self, op: BinOp, a: u32, b: u32) -> u32 {
        let dst = self.alloc();
        self.emit(Instr::Binop { dst, op, a, b });
        dst
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

/// The kind of chunk a lowering emits into. Host and device code lower
/// through the same functions, and a `Side` picks the instruction at each
/// point where the two kinds differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Host,
    Device,
}

impl Side {
    /// The statement prologue.
    #[inline]
    fn tick(self) -> Instr {
        match self {
            Side::Host => Instr::TickHost,
            Side::Device => Instr::TickDev,
        }
    }

    /// `regs[dst]` = the variable `names[name]`.
    #[inline]
    fn read_var(self, dst: u32, name: u32, slot: u32) -> Instr {
        match self {
            Side::Host => Instr::ReadVarH { dst, name, slot },
            Side::Device => Instr::ReadVarD { dst, name, slot },
        }
    }

    /// The variable `names[name]` = `regs[src]`.
    #[inline]
    fn write_var(self, src: u32, name: u32, slot: u32) -> Instr {
        match self {
            Side::Host => Instr::WriteVarH { src, name, slot },
            Side::Device => Instr::WriteVarD { src, name, slot },
        }
    }

    /// The fused index load of a plain-variable subscript.
    #[inline]
    fn idx_var(self, dst: u32, name: u32, slot: u32) -> Instr {
        match self {
            Side::Host => Instr::IdxVarH { dst, name, slot },
            Side::Device => Instr::IdxVarD { dst, name, slot },
        }
    }

    /// An element read. A device element has no slot operand: the VM
    /// finds its buffer by name.
    #[inline]
    fn read_idx(self, dst: u32, name: u32, slot: u32, idx: u32, n: u8) -> Instr {
        match self {
            Side::Host => Instr::ReadIdxH {
                dst,
                name,
                slot,
                idx,
                n,
            },
            Side::Device => Instr::ReadIdxD { dst, name, idx, n },
        }
    }

    /// An element write (see [`Side::read_idx`]).
    #[inline]
    fn write_idx(self, src: u32, name: u32, slot: u32, idx: u32, n: u8) -> Instr {
        match self {
            Side::Host => Instr::WriteIdxH {
                src,
                name,
                slot,
                idx,
                n,
            },
            Side::Device => Instr::WriteIdxD { src, name, idx, n },
        }
    }

    /// Escape: evaluate `exprs[expr]` with the walker. Only host
    /// evaluation takes the lvalue `hint`.
    #[inline]
    fn eval_expr(self, dst: u32, expr: u32, hint: ScalarType) -> Instr {
        match self {
            Side::Host => Instr::EvalHostExpr { dst, expr, hint },
            Side::Device => Instr::EvalDevExpr { dst, expr },
        }
    }

    /// Escape: execute `stmts[stmt]` with the walker.
    #[inline]
    fn stmt(self, stmt: u32) -> Instr {
        match self {
            Side::Host => Instr::HostStmt { stmt },
            Side::Device => Instr::DevStmt { stmt },
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
    /// The program lowered: every [`Node`] the image records points into
    /// it.
    prog: &'p Program,
    layout: &'p FrameLayout,
    bp: BytecodeProgram,
    /// The name id of each slot of `layout`, `NO_NAME` until the slot's
    /// first use, so one layout lookup yields both operands of a variable.
    slot_names: Vec<u32>,
}

/// Lower every function of `program` to bytecode. Infallible: anything the
/// lowering does not model escapes to the walker, and compile-time-known
/// crash paths become `CrashMsg` instructions. The image keeps `program`
/// alive and refers to its escaped nodes in place.
pub(crate) fn lower(program: &Arc<Program>, resolved: &ResolvedProgram) -> BytecodeProgram {
    let prog: &Program = program;
    let empty = FrameLayout::default();
    let mut lw = Lowerer {
        prog,
        layout: &empty,
        bp: BytecodeProgram::new(Arc::clone(program)),
        slot_names: Vec::new(),
    };
    // The two largest tables grow in pooled buffers and are copied out at
    // their final size (see `Lowerer::finish`).
    lw.bp.code = crate::arena::take_code();
    lw.bp.consts = crate::arena::take_consts(0);
    for f in &prog.functions {
        let layout = resolved.layout(&f.name);
        lw.layout = layout.unwrap_or(&empty);
        lw.slot_names.clear();
        lw.slot_names.resize(lw.layout.len(), NO_NAME);
        let mut buf = ChunkBuf::new();
        // A function without a layout is unreachable (call_function errors
        // first); its chunk stays empty.
        if layout.is_some() {
            lw.lower_body(&mut buf, Side::Host, &f.body);
        }
        let chunk = buf.seal(&mut lw.bp.code);
        lw.bp.funcs.push(FuncCode {
            name: f.name.clone(),
            chunk,
        });
    }
    lw.finish()
}

impl<'p> Lowerer<'p> {
    /// The image, its instruction stream and constants copied out of the
    /// pooled buffers they grew in: one allocation each at the final size,
    /// so lowering does not reallocate as they grow and the image keeps
    /// no growth slack.
    fn finish(mut self) -> BytecodeProgram {
        let code = std::mem::take(&mut self.bp.code);
        self.bp.code = code.to_vec();
        crate::arena::give_code(code);
        let consts = std::mem::take(&mut self.bp.consts);
        self.bp.consts = consts.to_vec();
        crate::arena::give_consts(consts);
        self.bp
    }

    // ---- side-table interning ----

    /// The name-table id and slot operand of the variable `n`, from one
    /// layout lookup. Each slot gets its name entry at its first use in
    /// the function; a name without a slot (which the VM reports as
    /// unresolved when it is reached) gets an entry per occurrence.
    fn var(&mut self, n: &Name) -> (u32, u32) {
        let Some(slot) = self.layout.slot(n) else {
            return (self.push_name(n), NO_SLOT);
        };
        if self.slot_names[slot] == NO_NAME {
            self.slot_names[slot] = self.push_name(n);
        }
        (self.slot_names[slot], slot as u32)
    }

    fn push_name(&mut self, n: &Name) -> u32 {
        self.bp.names.push(n.clone());
        (self.bp.names.len() - 1) as u32
    }

    fn const_id(&mut self, v: Value) -> u32 {
        self.bp.consts.push(v);
        (self.bp.consts.len() - 1) as u32
    }

    fn node<T: ?Sized>(&self, n: &'p T) -> Node<T> {
        Node::new(n, self.prog)
    }

    fn add_dir(&mut self, d: &'p AccDirective) -> u32 {
        self.bp.dirs.push(self.node(d));
        (self.bp.dirs.len() - 1) as u32
    }

    fn add_stmt(&mut self, s: &'p Stmt) -> u32 {
        self.bp.stmts.push(self.node(s));
        (self.bp.stmts.len() - 1) as u32
    }

    fn add_expr(&mut self, e: &'p Expr) -> u32 {
        self.bp.exprs.push(self.node(e));
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

    fn emit_const(&mut self, buf: &mut ChunkBuf, v: Value) -> u32 {
        let k = self.const_id(v);
        let dst = buf.alloc();
        buf.emit(Instr::Const { dst, k });
        dst
    }

    // ---- statements ----

    /// Lower `body` into a chunk of `side`, each statement starting from
    /// the register mark taken before it.
    fn lower_body(&mut self, buf: &mut ChunkBuf, side: Side, body: &'p [Stmt]) {
        for s in body {
            let m = buf.mark();
            match side {
                Side::Host => self.lower_stmt_h(buf, s),
                Side::Device => self.lower_stmt_d(buf, s),
            }
            buf.reset(m);
        }
    }

    fn lower_stmt_h(&mut self, buf: &mut ChunkBuf, s: &'p Stmt) {
        match s {
            // Escapes: calls (runtime routines, user functions, deferred
            // effects) and array declarations (arena allocation).
            Stmt::Call { .. } | Stmt::DeclArray { .. } => {
                let i = self.add_stmt(s);
                buf.emit(Instr::HostStmt { stmt: i });
            }
            Stmt::Assign { target, op, value } => {
                self.lower_assign(buf, Side::Host, s, target, *op, value)
            }
            Stmt::DeclScalar { name, ty, init } => {
                buf.emit(Instr::TickHost);
                let r = match init {
                    Some(e) => {
                        let r = self.lower_expr(buf, Side::Host, e, ty.scalar());
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
            } => self.lower_if(buf, Side::Host, cond, then_body, else_body),
            Stmt::Return(e) => {
                buf.emit(Instr::TickHost);
                let r = self.lower_expr(buf, Side::Host, e, ScalarType::Float);
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

    fn lower_stmt_d(&mut self, buf: &mut ChunkBuf, s: &'p Stmt) {
        match s {
            // Escape: device calls (acc_on_device, intrinsic/user
            // rejection). `exec_stmt_device` does its own tick and
            // region-cost accounting.
            Stmt::Call { .. } => {
                let i = self.add_stmt(s);
                buf.emit(Instr::DevStmt { stmt: i });
            }
            Stmt::Assign { target, op, value } => {
                self.lower_assign(buf, Side::Device, s, target, *op, value)
            }
            Stmt::DeclScalar { name, ty, init } => {
                buf.emit(Instr::TickDev);
                let r = match init {
                    Some(e) => {
                        let r = self.lower_expr(buf, Side::Device, e, ty.scalar());
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
            } => self.lower_if(buf, Side::Device, cond, then_body, else_body),
            Stmt::Return(_) => {
                buf.emit(Instr::TickDev);
                self.emit_crash(
                    buf,
                    "return inside a compute region is not supported".into(),
                );
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

    /// The assignment `s` on `side`. It escapes whole when its target
    /// exceeds the inline index arity, and on the host also when it
    /// assigns a scalar a value whose calls observe the walker's runtime
    /// lvalue hint (device evaluation takes no hint). Otherwise the value
    /// lowers first, then the target.
    fn lower_assign(
        &mut self,
        buf: &mut ChunkBuf,
        side: Side,
        s: &'p Stmt,
        target: &'p LValue,
        op: Option<BinOp>,
        value: &'p Expr,
    ) {
        let escape = match target {
            LValue::Var(_) => side == Side::Host && hinted_call(value),
            LValue::Index { indices, .. } => indices.len() > MAX_IDX,
        };
        if escape {
            let i = self.add_stmt(s);
            buf.emit(side.stmt(i));
            return;
        }
        buf.emit(side.tick());
        // The hint only reaches calls chained through unary/binary
        // operators; those host assignments escaped above, so `Float`
        // (the walker's default) is exact here.
        let rhs = self.lower_expr(buf, side, value, ScalarType::Float);
        match target {
            LValue::Var(n) => {
                let (name, slot) = self.var(n);
                let src = match op {
                    None => rhs,
                    Some(op) => {
                        let old = buf.alloc();
                        buf.emit(side.read_var(old, name, slot));
                        buf.binop(op, old, rhs)
                    }
                };
                buf.emit(side.write_var(src, name, slot));
            }
            LValue::Index { base, indices } => {
                let (name, slot) = self.var(base);
                let n = indices.len() as u8;
                let src = match op {
                    None => rhs,
                    Some(op) => {
                        let idx = self.lower_index_block(buf, side, indices);
                        let old = buf.alloc();
                        buf.emit(side.read_idx(old, name, slot, idx, n));
                        buf.binop(op, old, rhs)
                    }
                };
                // C semantics: the walker evaluates the index expressions
                // again for the write.
                let idx = self.lower_index_block(buf, side, indices);
                buf.emit(side.write_idx(src, name, slot, idx, n));
            }
        }
    }

    /// `if`/`else` on `side`: the condition, then each body behind a
    /// patched jump.
    fn lower_if(
        &mut self,
        buf: &mut ChunkBuf,
        side: Side,
        cond: &'p Expr,
        then_body: &'p [Stmt],
        else_body: &'p [Stmt],
    ) {
        buf.emit(side.tick());
        let rc = self.lower_expr(buf, side, cond, ScalarType::Float);
        let jel = buf.emit(Instr::JumpIfFalse { cond: rc, to: 0 });
        self.lower_body(buf, side, then_body);
        let jend = buf.emit(Instr::Jump { to: 0 });
        let here = buf.here();
        buf.patch(jel, here);
        self.lower_body(buf, side, else_body);
        let here = buf.here();
        buf.patch(jend, here);
    }

    /// The counted-loop core, shared by `Stmt::For` (after its statement
    /// tick) and a `loop` directive outside compute constructs, which the
    /// walker enters without a statement tick.
    /// Mirrors `exec_for_host`: bounds/step once, per-iteration tick before
    /// the re-evaluated upper bound, raw slot store of the induction value.
    fn lower_for_h_core(&mut self, buf: &mut ChunkBuf, l: &'p ForLoop) {
        let rf = self.lower_int_expr(buf, Side::Host, &l.from);
        let rs = self.lower_int_expr(buf, Side::Host, &l.step);
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
            None => self.lower_int_expr(buf, Side::Host, &l.to),
        };
        let jexit = buf.emit(Instr::JumpIfGe {
            a: ri,
            b: rt,
            to: 0,
        });
        buf.emit(Instr::SetSlot {
            slot: slot as u32,
            src: ri,
        });
        self.lower_body(buf, Side::Host, &l.body);
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

    /// A sequential device loop (`exec_for_device` with every iteration
    /// selected — the unannotated-loop, gang-redundant case): bounds
    /// evaluated once up front, no per-iteration tick.
    fn lower_for_d_core(&mut self, buf: &mut ChunkBuf, l: &'p ForLoop) {
        let rf = self.lower_int_expr(buf, Side::Device, &l.from);
        let rt = self.lower_int_expr(buf, Side::Device, &l.to);
        let rs = self.lower_int_expr(buf, Side::Device, &l.step);
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
        let jexit = buf.emit(Instr::JumpIfGe {
            a: ri,
            b: rt,
            to: 0,
        });
        buf.emit(Instr::SetLocal {
            slot: slot as u32,
            src: ri,
        });
        buf.emit(Instr::DevIter);
        self.lower_body(buf, Side::Device, &l.body);
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

    // ---- expressions ----

    /// Lower an expression the walker immediately `.as_int()`s, yielding a
    /// register guaranteed to hold `Value::Int`. Plain variables fuse to a
    /// single index load (`IdxVarH`/`IdxVarD`), literals to a `Const`;
    /// anything else takes the general lowering followed by `AsInt` (same
    /// eval → as_int order).
    fn lower_int_expr(&mut self, buf: &mut ChunkBuf, side: Side, e: &'p Expr) -> u32 {
        match e {
            Expr::Var(n) => {
                let dst = buf.alloc();
                let (name, slot) = self.var(n);
                buf.emit(side.idx_var(dst, name, slot));
                dst
            }
            Expr::Int(v) => {
                let dst = buf.alloc();
                let k = self.const_id(Value::Int(*v));
                buf.emit(Instr::Const { dst, k });
                dst
            }
            _ => {
                let r = self.lower_expr(buf, side, e, ScalarType::Float);
                buf.emit(Instr::AsInt { r });
                r
            }
        }
    }

    /// Lower index expressions into `n` consecutive registers, each
    /// evaluated then integer-converted in sequence (the walker's
    /// per-index `eval → as_int` interleave, preserving crash order).
    fn lower_index_block(&mut self, buf: &mut ChunkBuf, side: Side, indices: &'p [Expr]) -> u32 {
        let block = buf.alloc_n(indices.len() as u32);
        for (k, e) in indices.iter().enumerate() {
            let dst = block + k as u32;
            match e {
                // Fused fast paths for the dominant subscript shapes; the
                // eval-then-as_int order per index is unchanged.
                Expr::Var(n) => {
                    let (name, slot) = self.var(n);
                    buf.emit(side.idx_var(dst, name, slot));
                }
                Expr::Int(v) => {
                    let k = self.const_id(Value::Int(*v));
                    buf.emit(Instr::Const { dst, k });
                }
                _ => {
                    let r = self.lower_expr(buf, side, e, ScalarType::Float);
                    buf.emit(Instr::AsInt { r });
                    buf.emit(Instr::Copy { dst, src: r });
                }
            }
        }
        block
    }

    /// Lower `e` on `side` into a fresh register. `hint` is the walker's
    /// lvalue hint for a call the expression escapes to, which only host
    /// evaluation observes.
    fn lower_expr(&mut self, buf: &mut ChunkBuf, side: Side, e: &'p Expr, hint: ScalarType) -> u32 {
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
                let (name, slot) = self.var(n);
                let dst = buf.alloc();
                buf.emit(side.read_var(dst, name, slot));
                dst
            }
            Expr::Index { base, indices } if indices.len() <= MAX_IDX => {
                // Index subexpressions always evaluate under the default
                // hint in the walker (`eval_host`).
                let idx = self.lower_index_block(buf, side, indices);
                let (name, slot) = self.var(base);
                let dst = buf.alloc();
                buf.emit(side.read_idx(dst, name, slot, idx, indices.len() as u8));
                dst
            }
            Expr::Index { .. } | Expr::Call { .. } => {
                // Escapes: calls keep their full walker semantics (runtime
                // dispatch, intrinsics, user functions, malloc hint), deep
                // index expressions skip the fixed-arity fast path.
                let id = self.add_expr(e);
                let dst = buf.alloc();
                buf.emit(side.eval_expr(dst, id, hint));
                dst
            }
            Expr::Unary(op, inner) => {
                let src = self.lower_expr(buf, side, inner, hint);
                let dst = buf.alloc();
                buf.emit(Instr::Unop { dst, op: *op, src });
                dst
            }
            Expr::Binary(op @ (BinOp::And | BinOp::Or), l, r) => {
                // Short circuit: `dst` starts as the value `a` alone
                // decides (0 for `&&`, 1 for `||`), and the jump skips
                // `r` when `a` decides it.
                let a = self.lower_expr(buf, side, l, hint);
                let (dst, jend) = match op {
                    BinOp::And => {
                        let dst = self.emit_const(buf, Value::Int(0));
                        (dst, buf.emit(Instr::JumpIfFalse { cond: a, to: 0 }))
                    }
                    _ => {
                        let dst = self.emit_const(buf, Value::Int(1));
                        (dst, buf.emit(Instr::JumpIfTrue { cond: a, to: 0 }))
                    }
                };
                let b = self.lower_expr(buf, side, r, hint);
                buf.emit(Instr::Binop { dst, op: *op, a, b });
                let here = buf.here();
                buf.patch(jend, here);
                dst
            }
            Expr::Binary(op, l, r) => {
                let a = self.lower_expr(buf, side, l, hint);
                let b = self.lower_expr(buf, side, r, hint);
                buf.binop(*op, a, b)
            }
        }
    }

    // ---- regions / directive bodies ----

    fn lower_region_block(&mut self, dir: &'p AccDirective, body: &'p [Stmt]) -> u32 {
        let dir_id = self.add_dir(dir);
        let dev = RegionDev::Block(self.lower_dev_chunk(body));
        let start = self.bp.arrays.len();
        push_region_arrays(body, None, &mut self.bp.arrays);
        self.bp.regions.push(RegionCode {
            dir: dir_id,
            ast: RegionAst::Block(self.node(body)),
            dev,
            arrays: Span::of(&self.bp.arrays, start),
            dead: stmts_all_dead(body),
        });
        (self.bp.regions.len() - 1) as u32
    }

    fn lower_region_loop(&mut self, dir: &'p AccDirective, l: &'p ForLoop) -> u32 {
        let dir_id = self.add_dir(dir);
        let nest = self.lower_nest(dir_id, dir, l);
        let start = self.bp.arrays.len();
        push_region_arrays(&l.body, Some(l), &mut self.bp.arrays);
        self.bp.regions.push(RegionCode {
            dir: dir_id,
            ast: RegionAst::Loop(self.node(l)),
            dev: RegionDev::Loop(nest),
            arrays: Span::of(&self.bp.arrays, start),
            dead: stmts_all_dead(&l.body),
        });
        (self.bp.regions.len() - 1) as u32
    }

    fn lower_host_block(&mut self, dir: &'p AccDirective, body: &'p [Stmt]) -> u32 {
        let dir_id = self.add_dir(dir);
        let mut buf = ChunkBuf::new();
        self.lower_body(&mut buf, Side::Host, body);
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
        // The chain's loops go into the shared table first, so they stay
        // contiguous while their bodies lower nests of their own.
        let first = self.bp.loops.len();
        let mut lp = l;
        loop {
            self.bp.loops.push(NestLoop {
                l: self.node(lp),
                slot: self.layout.slot(&lp.var).map(|s| s as u32),
                body: Chunk { start: 0, regs: 0 },
            });
            match lp.body.as_slice() {
                [Stmt::For(inner)] if self.bp.loops.len() - first < static_n => lp = inner,
                _ => break,
            }
        }
        let loops = Span::of(&self.bp.loops, first);
        let mut lp = l;
        for i in loops.range() {
            self.bp.loops[i].body = self.lower_dev_chunk(&lp.body);
            if let [Stmt::For(inner)] = lp.body.as_slice() {
                lp = inner;
            }
        }
        self.bp.nests.push(DevLoopNest { dir: dir_id, loops });
        (self.bp.nests.len() - 1) as u32
    }

    fn lower_dev_chunk(&mut self, body: &'p [Stmt]) -> Chunk {
        let mut buf = ChunkBuf::new();
        self.lower_body(&mut buf, Side::Device, body);
        buf.seal(&mut self.bp.code)
    }
}
