//! Pooled per-case scratch memory.
//!
//! A campaign executes tens of thousands of cases per second, and each case
//! used to allocate the same transient vectors over and over: a host frame's
//! slot vector per function call, a device context's slot/owner vectors per
//! gang, a register file per VM chunk activation, and a lowering buffer per
//! compiled chunk. At high `--jobs` those short-lived allocations contend on
//! the global allocator and bound campaign throughput.
//!
//! This module recycles them through thread-local pools. The lifetime rules
//! (DESIGN.md §15.3) that make this sound:
//!
//! - Pooled element types are plain data (`Value`, `u32`, `Slot`, `Instr`) —
//!   `'static`, no `Drop`, no borrows — so a recycled vector can never leak
//!   a reference into a later case.
//! - Every `take_*` clears and re-initializes the vector to the requested
//!   default state; callers observe exactly what a fresh allocation gives.
//! - Pools are thread-local: a vector returns to the pool of the thread
//!   that's dropping it, so there is no cross-thread traffic.
//! - Pool depth and element capacity are capped so one pathological case
//!   cannot pin unbounded memory for the rest of a campaign.

use std::cell::RefCell;

use acc_device::Value;

use crate::bytecode::Instr;
use crate::exec::Slot;

/// Max vectors kept per pool (beyond this, drops free normally).
const MAX_POOL: usize = 64;
/// Max capacity (in elements) a vector may have and still be pooled —
/// pathological cases free normally instead of pinning memory.
const MAX_KEEP: usize = 1 << 16;

thread_local! {
    static DEV_SLOTS: RefCell<Vec<Vec<Option<Value>>>> = const { RefCell::new(Vec::new()) };
    static DEV_OWNERS: RefCell<Vec<Vec<u32>>> = const { RefCell::new(Vec::new()) };
    static FRAME_SLOTS: RefCell<Vec<Vec<Slot>>> = const { RefCell::new(Vec::new()) };
    static REGS: RefCell<Vec<Vec<Value>>> = const { RefCell::new(Vec::new()) };
    static CODE: RefCell<Vec<Vec<Instr>>> = const { RefCell::new(Vec::new()) };
    static CONSTS: RefCell<Vec<Vec<Value>>> = const { RefCell::new(Vec::new()) };
}

macro_rules! pool {
    ($pool:ident, $take:ident, $give:ident, $t:ty, $init:expr) => {
        pub(crate) fn $take(len: usize) -> Vec<$t> {
            let mut v: Vec<$t> = $pool
                .with(|p| p.borrow_mut().pop())
                .unwrap_or_default();
            v.clear();
            v.resize(len, $init);
            v
        }

        pub(crate) fn $give(v: Vec<$t>) {
            if v.capacity() == 0 || v.capacity() > MAX_KEEP {
                return;
            }
            $pool.with(|p| {
                let mut p = p.borrow_mut();
                if p.len() < MAX_POOL {
                    p.push(v);
                }
            });
        }
    };
}

pool!(DEV_SLOTS, take_slots, give_slots, Option<Value>, None);
pool!(DEV_OWNERS, take_owners, give_owners, u32, 0);
pool!(FRAME_SLOTS, take_frame_slots, give_frame_slots, Slot, Slot::default());
pool!(CONSTS, take_consts, give_consts, Value, Value::Int(0));

/// A register file for one VM chunk activation; sized by the caller
/// (`take_regs(0)` + `resize` keeps the VM's existing sizing logic).
pub(crate) fn take_regs() -> Vec<Value> {
    REGS.with(|p| p.borrow_mut().pop()).unwrap_or_default()
}

pub(crate) fn give_regs(v: Vec<Value>) {
    if v.capacity() == 0 || v.capacity() > MAX_KEEP {
        return;
    }
    REGS.with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < MAX_POOL {
            p.push(v);
        }
    });
}

/// A lowering buffer for one bytecode chunk (see `ChunkBuf`), or for a
/// whole program's instruction stream while it is lowered.
pub(crate) fn take_code() -> Vec<Instr> {
    let mut v = CODE.with(|p| p.borrow_mut().pop()).unwrap_or_default();
    v.clear();
    v
}

pub(crate) fn give_code(v: Vec<Instr>) {
    if v.capacity() == 0 || v.capacity() > MAX_KEEP {
        return;
    }
    CODE.with(|p| {
        let mut p = p.borrow_mut();
        if p.len() < MAX_POOL {
            p.push(v);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycled_vectors_come_back_clean() {
        let mut v = take_slots(4);
        v[2] = Some(Value::Int(7));
        give_slots(v);
        let v2 = take_slots(6);
        assert_eq!(v2.len(), 6);
        assert!(v2.iter().all(|s| s.is_none()));
        let o = take_owners(3);
        assert_eq!(o, vec![0, 0, 0]);
    }

    #[test]
    fn oversized_vectors_are_not_pooled() {
        let v: Vec<Option<Value>> = Vec::with_capacity(MAX_KEEP + 1);
        give_slots(v); // must not panic; silently freed
        let mut r = take_regs();
        r.resize(8, Value::Int(0));
        give_regs(r);
        assert!(take_regs().capacity() >= 8);
    }
}
