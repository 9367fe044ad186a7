//! The bytecode dispatch loop.
//!
//! Executes [`crate::bytecode::BytecodeProgram`] chunks against the same
//! [`Machine`] state the tree walker uses — the same frames, present table,
//! device memory, clocks, and fault draws — so every observable effect
//! (including crash messages, tick counts, and metric increments) is
//! byte-identical between the two engines. Directive instructions re-enter
//! the shared handlers in `exec` (`exec_compute_region`,
//! `exec_data_region`, `exec_acc_loop_device`, `exec_standalone`) with the
//! lowered body representation; statement/expression escape hatches call
//! straight back into the walker.

use acc_ast::Name;
use acc_device::Value;

use crate::bytecode::{Chunk, DevLoopNest, Instr, NO_SLOT};
use crate::exec::{
    apply_binop, apply_unop, crash, dev_flat, nest_total, place_nest, unresolved, with_stack_list,
    Abort, ArrBinding, DevCtx, DevLoopRef, Exec, Flow, HostRef, Machine, NestDim, RegionBody,
    UnitSel,
};

/// Decode a `NO_SLOT`-encoded slot operand.
#[inline]
fn opt_slot(s: u32) -> Option<usize> {
    if s == NO_SLOT {
        None
    } else {
        Some(s as usize)
    }
}

/// An internal-invariant crash: lowering emitted an instruction in the
/// wrong kind of chunk. Never reachable from generated programs.
fn wrong_chunk(ins: &Instr, which: &str) -> Abort {
    Abort::Crash(format!(
        "internal error: {ins:?} in a {which} chunk"
    ))
}

impl<'a> Machine<'a> {
    /// Run the lowered body of `name` (the VM side of `call_function`).
    pub(crate) fn vm_function(&mut self, name: &str) -> Exec<Flow> {
        let bp = self
            .code
            .ok_or_else(|| Abort::Crash("internal error: VM dispatch without bytecode".into()))?;
        match bp.func_chunk(name) {
            Some(c) => self.vm_host_chunk(c),
            None => Err(unresolved(name)),
        }
    }

    /// Grab a scratch register file from the pool, sized for `chunk`. Falls
    /// back to the thread-local arena so register files recycle across
    /// machine instances, not just within one run.
    fn take_regs(&mut self, n: u32) -> Vec<Value> {
        let mut regs = self
            .reg_pool
            .pop()
            .unwrap_or_else(crate::arena::take_regs);
        regs.clear();
        regs.resize(n as usize, Value::Int(0));
        regs
    }

    /// Execute a host chunk with a pooled register file.
    pub(crate) fn vm_host_chunk(&mut self, chunk: Chunk) -> Exec<Flow> {
        let mut regs = self.take_regs(chunk.regs);
        let r = self.vm_host_loop(chunk, &mut regs);
        self.reg_pool.push(regs);
        r
    }

    fn vm_host_loop(&mut self, chunk: Chunk, regs: &mut [Value]) -> Exec<Flow> {
        // `code` is a Copy field holding `&'a BytecodeProgram`, so `bp`
        // borrows the executable, not `self`.
        let bp = self
            .code
            .ok_or_else(|| Abort::Crash("internal error: VM dispatch without bytecode".into()))?;
        let base = chunk.start as usize;
        let mut pc = 0usize;
        loop {
            let ins = bp.code[base + pc];
            pc += 1;
            self.vm_instructions += 1;
            match ins {
                Instr::Const { dst, k } => regs[dst as usize] = bp.consts[k as usize],
                Instr::Copy { dst, src } => regs[dst as usize] = regs[src as usize],
                Instr::Unop { dst, op, src } => {
                    regs[dst as usize] = apply_unop(op, regs[src as usize]).map_err(crash)?;
                }
                Instr::Binop { dst, op, a, b } => {
                    regs[dst as usize] =
                        apply_binop(op, regs[a as usize], regs[b as usize]).map_err(crash)?;
                }
                Instr::AsInt { r } => {
                    regs[r as usize] = Value::Int(regs[r as usize].as_int().map_err(crash)?);
                }
                Instr::ConvertTo { r, ty } => {
                    regs[r as usize] = regs[r as usize].convert_to(ty).map_err(crash)?;
                }
                Instr::Garbage { dst, ty } => regs[dst as usize] = self.garbage_value(ty),
                Instr::Jump { to } => pc = to as usize,
                Instr::JumpIfTrue { cond, to } => {
                    if regs[cond as usize].truthy() {
                        pc = to as usize;
                    }
                }
                Instr::JumpIfFalse { cond, to } => {
                    if !regs[cond as usize].truthy() {
                        pc = to as usize;
                    }
                }
                Instr::JumpIfGe { a, b, to } => {
                    if loop_ge(regs[a as usize], regs[b as usize])? {
                        pc = to as usize;
                    }
                }
                Instr::CrashMsg { msg } => {
                    return Err(Abort::Crash(bp.msgs[msg as usize].clone()))
                }
                Instr::CheckStep { src } => {
                    let step = regs[src as usize].as_int().map_err(crash)?;
                    if step <= 0 {
                        return Err(Abort::Crash(format!(
                            "loop step must be positive, got {step}"
                        )));
                    }
                }
                Instr::Return { src } => return Ok(Flow::Return(regs[src as usize])),
                Instr::End => return Ok(Flow::Normal),

                Instr::TickHost => {
                    self.tick()?;
                    self.world.clock.advance(1);
                }
                Instr::TickLoop => self.tick()?,
                Instr::ReadVarH { dst, name, slot } => {
                    regs[dst as usize] =
                        self.read_var_host_at(&bp.names[name as usize], opt_slot(slot))?;
                }
                Instr::WriteVarH { src, name, slot } => {
                    self.write_var_host_at(
                        &bp.names[name as usize],
                        opt_slot(slot),
                        regs[src as usize],
                    )?;
                }
                Instr::IdxVarH { dst, name, slot } => {
                    let v = self.read_var_host_at(&bp.names[name as usize], opt_slot(slot))?;
                    regs[dst as usize] = Value::Int(v.as_int().map_err(crash)?);
                }
                Instr::ReadIdxH { dst, name, slot, idx, n } => {
                    let vals = int_block(regs, idx, n);
                    let nm = &bp.names[name as usize];
                    let (binding, flat) =
                        self.vm_host_elem(nm, opt_slot(slot), &vals[..n as usize])?;
                    regs[dst as usize] = match binding {
                        ArrBinding::Host(id) => {
                            self.host_arrays[id].data.get(flat).ok_or_else(|| {
                                Abort::Crash(format!("host read out of bounds: {nm}[{flat}]"))
                            })?
                        }
                        ArrBinding::Device(buf) => self
                            .world
                            .mem
                            .read(buf, flat)
                            .map_err(|e| Abort::Crash(e.to_string()))?,
                    };
                }
                Instr::WriteIdxH { src, name, slot, idx, n } => {
                    let vals = int_block(regs, idx, n);
                    let nm = &bp.names[name as usize];
                    let (binding, flat) =
                        self.vm_host_elem(nm, opt_slot(slot), &vals[..n as usize])?;
                    match binding {
                        ArrBinding::Host(id) => {
                            let arr = &mut self.host_arrays[id];
                            if !arr.data.set(flat, regs[src as usize]).map_err(crash)? {
                                return Err(Abort::Crash(format!(
                                    "host write out of bounds: {nm}[{flat}]"
                                )));
                            }
                        }
                        ArrBinding::Device(buf) => self
                            .world
                            .mem
                            .write(buf, flat, regs[src as usize])
                            .map_err(|e| Abort::Crash(e.to_string()))?,
                    }
                }
                Instr::DeclStore { src, slot, ty } => {
                    let f = self.frame_mut();
                    f.slots[slot as usize].val = Some(regs[src as usize]);
                    f.slots[slot as usize].ty = Some(ty);
                }
                Instr::SetSlot { slot, src } => {
                    self.frame_mut().slots[slot as usize].val = Some(regs[src as usize]);
                }
                Instr::EvalHostExpr { dst, expr, hint } => {
                    regs[dst as usize] = self.eval_host_with_hint(bp.expr(expr), hint)?;
                }
                Instr::HostStmt { stmt } => {
                    if let Flow::Return(v) = self.exec_stmt_host(bp.stmt(stmt))? {
                        return Ok(Flow::Return(v));
                    }
                }
                Instr::Standalone { dir } => self.exec_standalone(bp.dir(dir))?,
                Instr::Compute { region } => {
                    let rc = &bp.regions[region as usize];
                    self.exec_compute_region(bp.dir(rc.dir), RegionBody::Code(rc))?;
                }
                Instr::DataRegion { block } => {
                    let hb = &bp.blocks[block as usize];
                    self.exec_data_region(bp.dir(hb.dir), HostRef::Code(hb.chunk))?;
                }
                Instr::HostDataRegion { block } => {
                    let hb = &bp.blocks[block as usize];
                    self.exec_hostdata_region(bp.dir(hb.dir), HostRef::Code(hb.chunk))?;
                }

                other => return Err(wrong_chunk(&other, "host")),
            }
        }
    }

    /// `lookup_array_host` + `flatten` with the base's slot pre-resolved —
    /// the crash order (indices first, then binding, then bounds) already
    /// happened or happens here exactly as in `flat_index_host`.
    #[inline]
    fn vm_host_elem(
        &mut self,
        nm: &Name,
        slot: Option<usize>,
        vals: &[i64],
    ) -> Exec<(ArrBinding, usize)> {
        let Some(binding) = slot.and_then(|s| self.frame().slots[s].arr) else {
            return Err(self.not_an_array(nm, slot));
        };
        let flat = match binding {
            ArrBinding::Host(id) => {
                crate::exec::flatten(nm, vals, &self.host_arrays[id].dims)?
            }
            ArrBinding::Device(buf) => {
                let dims = &self.world.mem.get(buf).map_err(crash)?.dims;
                crate::exec::flatten(nm, vals, dims)?
            }
        };
        Ok((binding, flat))
    }

    /// The crash of an element access whose base has no array binding.
    #[cold]
    #[inline(never)]
    fn not_an_array(&self, nm: &Name, slot: Option<usize>) -> Abort {
        if let Some(Value::DevPtr(_)) = slot.and_then(|s| self.frame().slots[s].val) {
            return Abort::Crash(format!(
                "host dereference of device pointer `{nm}` (segmentation fault)"
            ));
        }
        Abort::Crash(format!("`{nm}` is not an array"))
    }

    /// Invalidate the name → buffer cache for a fresh device-chunk
    /// activation. Host code (which is what mutates the present table) can
    /// never run while a device chunk is live, so resolutions stay valid
    /// until the next activation.
    fn reset_dev_bufs(&mut self) {
        let n = self.code.map(|bp| bp.names.len()).unwrap_or(0);
        self.dev_bufs.clear();
        self.dev_bufs.resize(n, None);
    }

    /// Execute a device chunk with a pooled register file.
    pub(crate) fn vm_dev_chunk(&mut self, chunk: Chunk, ctx: &mut DevCtx) -> Exec<Flow> {
        self.reset_dev_bufs();
        let mut regs = self.take_regs(chunk.regs);
        let r = self.vm_dev_loop(chunk, &mut regs, ctx);
        self.reg_pool.push(regs);
        r
    }

    fn vm_dev_loop(
        &mut self,
        chunk: Chunk,
        regs: &mut [Value],
        ctx: &mut DevCtx,
    ) -> Exec<Flow> {
        let bp = self
            .code
            .ok_or_else(|| Abort::Crash("internal error: VM dispatch without bytecode".into()))?;
        let base = chunk.start as usize;
        let mut pc = 0usize;
        loop {
            let ins = bp.code[base + pc];
            pc += 1;
            self.vm_instructions += 1;
            match ins {
                Instr::Const { dst, k } => regs[dst as usize] = bp.consts[k as usize],
                Instr::Copy { dst, src } => regs[dst as usize] = regs[src as usize],
                Instr::Unop { dst, op, src } => {
                    regs[dst as usize] = apply_unop(op, regs[src as usize]).map_err(crash)?;
                }
                Instr::Binop { dst, op, a, b } => {
                    regs[dst as usize] =
                        apply_binop(op, regs[a as usize], regs[b as usize]).map_err(crash)?;
                }
                Instr::AsInt { r } => {
                    regs[r as usize] = Value::Int(regs[r as usize].as_int().map_err(crash)?);
                }
                Instr::ConvertTo { r, ty } => {
                    regs[r as usize] = regs[r as usize].convert_to(ty).map_err(crash)?;
                }
                Instr::Garbage { dst, ty } => regs[dst as usize] = self.garbage_value(ty),
                Instr::Jump { to } => pc = to as usize,
                Instr::JumpIfTrue { cond, to } => {
                    if regs[cond as usize].truthy() {
                        pc = to as usize;
                    }
                }
                Instr::JumpIfFalse { cond, to } => {
                    if !regs[cond as usize].truthy() {
                        pc = to as usize;
                    }
                }
                Instr::JumpIfGe { a, b, to } => {
                    if loop_ge(regs[a as usize], regs[b as usize])? {
                        pc = to as usize;
                    }
                }
                Instr::CrashMsg { msg } => {
                    return Err(Abort::Crash(bp.msgs[msg as usize].clone()))
                }
                Instr::CheckStep { src } => {
                    let step = regs[src as usize].as_int().map_err(crash)?;
                    if step <= 0 {
                        return Err(Abort::Crash(format!(
                            "loop step must be positive, got {step}"
                        )));
                    }
                }
                Instr::Return { src } => return Ok(Flow::Return(regs[src as usize])),
                Instr::End => return Ok(Flow::Normal),

                Instr::TickDev => {
                    self.tick()?;
                    self.region_cost += 1;
                }
                Instr::ReadVarD { dst, name, slot } => {
                    let s = opt_slot(slot);
                    // Fast path: a bound slot — the helper's own first check.
                    regs[dst as usize] = match s.and_then(|i| ctx.value(i)) {
                        Some(v) => v,
                        None => self.read_scalar_device_at(&bp.names[name as usize], s, ctx)?,
                    };
                }
                Instr::WriteVarD { src, name, slot } => {
                    self.write_scalar_device_at(
                        &bp.names[name as usize],
                        opt_slot(slot),
                        regs[src as usize],
                        ctx,
                    )?;
                }
                Instr::IdxVarD { dst, name, slot } => {
                    let s = opt_slot(slot);
                    let v = match s.and_then(|i| ctx.value(i)) {
                        Some(v) => v,
                        None => self.read_scalar_device_at(&bp.names[name as usize], s, ctx)?,
                    };
                    regs[dst as usize] = Value::Int(v.as_int().map_err(crash)?);
                }
                // One buffer lookup serves both the bounds (`dims`) and the
                // element.
                Instr::ReadIdxD { dst, name, idx, n } => {
                    let vals = int_block(regs, idx, n);
                    let nm = &bp.names[name as usize];
                    let buf = self.vm_dev_buf(name, nm, ctx)?;
                    let b = self.world.mem.get(buf).map_err(crash)?;
                    let flat = dev_flat(nm, &vals[..n as usize], &b.dims)?;
                    regs[dst as usize] = b.read(flat).map_err(crash)?;
                }
                Instr::WriteIdxD { src, name, idx, n } => {
                    let vals = int_block(regs, idx, n);
                    let nm = &bp.names[name as usize];
                    let buf = self.vm_dev_buf(name, nm, ctx)?;
                    let b = self.world.mem.get_mut(buf).map_err(crash)?;
                    let flat = dev_flat(nm, &vals[..n as usize], &b.dims)?;
                    b.write(flat, regs[src as usize]).map_err(crash)?;
                }
                Instr::SetLocal { slot, src } => {
                    ctx.set_local(slot as usize, regs[src as usize]);
                }
                Instr::DevIter => self.world.metrics.device_iterations += 1,
                Instr::EvalDevExpr { dst, expr } => {
                    regs[dst as usize] = self.eval_device(bp.expr(expr), ctx)?;
                }
                Instr::DevStmt { stmt } => {
                    if let Flow::Return(v) = self.exec_stmt_device(bp.stmt(stmt), ctx)? {
                        return Ok(Flow::Return(v));
                    }
                }
                Instr::DevLoopDir { nest } => {
                    let nl = &bp.nests[nest as usize];
                    self.exec_acc_loop_device(bp.dir(nl.dir), DevLoopRef::Code(nl), ctx)?;
                }

                other => return Err(wrong_chunk(&other, "device")),
            }
        }
    }

    /// The device buffer behind `nm` — the first half of
    /// `flat_index_device`. Resolutions are cached by name id for the rest
    /// of the chunk activation (see [`Self::reset_dev_bufs`]).
    #[inline]
    fn vm_dev_buf(&mut self, name: u32, nm: &Name, ctx: &DevCtx) -> Exec<acc_device::BufferId> {
        if let Some(b) = self.dev_bufs.get(name as usize).copied().flatten() {
            return Ok(b);
        }
        let b = if let Some(b) = ctx.devptr.get(nm) {
            *b
        } else if let Some(e) = self.world.present.get(nm) {
            e.buffer
        } else {
            return Err(Abort::Crash(format!(
                "device access to `{nm}` which is not present on the device"
            )));
        };
        if let Some(slot) = self.dev_bufs.get_mut(name as usize) {
            *slot = Some(b);
        }
        Ok(b)
    }

    /// The VM side of `exec_collapsed_loop`: run the iterations of the
    /// lowered nest selected by `unit` at collapse depth `collapse_n`.
    /// Selection is by stride (`r, r+m, r+2m, …`) — identical to the
    /// walker's ascending full scan filtered by `unit.selects`.
    pub(crate) fn vm_nest_collapsed(
        &mut self,
        nest: &'a DevLoopNest,
        collapse_n: usize,
        unit: UnitSel,
        ctx: &mut DevCtx,
    ) -> Exec<()> {
        let bp = self.image();
        let loops = bp.nest_loops(nest);
        if collapse_n > loops.len() {
            return Err(Abort::Crash("collapse requires tightly nested loops".into()));
        }
        self.reset_dev_bufs();
        with_stack_list(collapse_n, NestDim::default(), |dims| {
            // Bounds once, in loop order (rectangular iteration space);
            // per-loop step check interleaved exactly like the walker.
            let loops = &loops[..collapse_n];
            for (dim, lp) in dims.iter_mut().zip(loops) {
                let l = bp.node(lp.l);
                let from = self.eval_device(&l.from, ctx)?.as_int().map_err(crash)?;
                let to = self.eval_device(&l.to, ctx)?.as_int().map_err(crash)?;
                let step = self.eval_device(&l.step, ctx)?.as_int().map_err(crash)?;
                *dim = NestDim::new(from, to, step)?;
            }
            for (dim, lp) in dims.iter_mut().zip(loops) {
                dim.slot = lp.slot.ok_or_else(|| unresolved(&bp.node(lp.l).var))? as usize;
            }
            let total = nest_total(dims);
            let chunk = loops[collapse_n - 1].body;
            let (start, stride) = match unit {
                UnitSel::All => (0, 1),
                UnitSel::Modulo { m, r } => {
                    if m <= 1 {
                        (0, 1)
                    } else {
                        (r, m)
                    }
                }
            };
            let mut regs = self.take_regs(chunk.regs);
            let mut result = Ok(());
            let mut flat = start;
            while flat < total {
                place_nest(dims, flat);
                for d in dims.iter() {
                    ctx.set_local(d.slot, Value::Int(d.at));
                }
                self.world.metrics.device_iterations += 1;
                // Flow is discarded (Return cannot escape device bodies),
                // matching `exec_collapsed_loop`.
                if let Err(e) = self.vm_dev_loop(chunk, &mut regs, ctx) {
                    result = Err(e);
                    break;
                }
                let Some(next) = flat.checked_add(stride) else {
                    break;
                };
                flat = next;
            }
            self.reg_pool.push(regs);
            result
        })
    }
}

/// `a >= b` at a loop head: a raw `i64` compare when both are `Int`, as the
/// lowerer's loop heads make them; otherwise [`loop_ge_general`].
#[inline(always)]
fn loop_ge(a: Value, b: Value) -> Exec<bool> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(x >= y),
        _ => loop_ge_general(a, b),
    }
}

/// `as_int` on each operand in turn, then compare.
#[cold]
#[inline(never)]
fn loop_ge_general(a: Value, b: Value) -> Exec<bool> {
    Ok(a.as_int().map_err(crash)? >= b.as_int().map_err(crash)?)
}

/// Extract up to 8 integer index values from consecutive registers (every
/// index register was produced by `AsInt`, so these are `Value::Int`).
#[inline]
fn int_block(regs: &[Value], idx: u32, n: u8) -> [i64; 8] {
    let mut vals = [0i64; 8];
    for k in 0..n as usize {
        if let Value::Int(i) = regs[idx as usize + k] {
            vals[k] = i;
        }
    }
    vals
}
