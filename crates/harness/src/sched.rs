//! Bounded multi-tenant admission queue with weighted round-robin fairness.
//!
//! The campaign server admits submissions from many tenants — interactive
//! users poking at one feature, bulk sweeps enqueueing a vendor × version
//! matrix. Two properties keep the service healthy under that mix:
//!
//! 1. **Bounded admission** — the queue has a hard capacity. A full queue
//!    rejects the push ([`PushError::Full`]) so the caller can shed load
//!    explicitly (HTTP 429 + Retry-After) instead of buffering without
//!    bound until memory or latency collapses.
//! 2. **Weighted round-robin across tenants** — each tenant has its own
//!    FIFO; the dispatcher rotates between tenants, letting a tenant pop
//!    up to `weight` items per visit. A bulk sweep that enqueued 500 items
//!    still waits its turn each cycle, so an interactive tenant's single
//!    submission pops within one rotation instead of behind the sweep.
//!
//! The queue is a plain `Mutex` + `Condvar`. [`FairScheduler::pop_wait`]
//! blocks until an item may be handed out, so the dispatcher thread sleeps
//! when idle and wakes on [`FairScheduler::push`],
//! [`FairScheduler::set_paused`] and [`FairScheduler::close`]. The pause
//! flag lives under the queue's own lock: a popper re-checks it on every
//! wake-up, so an item pushed after a pause is never handed out until the
//! matching resume.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity; the item was not enqueued. Carries the
    /// current depth so the caller can report it alongside the 429.
    Full(usize),
    /// The queue was closed (server draining); nothing is admitted.
    Closed,
}

impl std::fmt::Display for PushError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PushError::Full(depth) => write!(f, "queue full at depth {depth}"),
            PushError::Closed => write!(f, "queue closed"),
        }
    }
}

struct TenantQueue<T> {
    items: VecDeque<T>,
    /// Items this tenant may still pop before the rotation moves on.
    credit: u32,
    /// Items per rotation visit (≥ 1).
    weight: u32,
}

struct SchedState<T> {
    /// Per-tenant FIFOs, keyed by tenant name. BTreeMap so iteration (and
    /// therefore tie-breaking) is deterministic.
    queues: BTreeMap<String, TenantQueue<T>>,
    /// Tenants with queued work, in rotation order (front = next to pop).
    rotation: VecDeque<String>,
    /// Total queued items across all tenants.
    len: usize,
    /// Paused: pushes are admitted but [`FairScheduler::pop_wait`] hands
    /// nothing out.
    paused: bool,
    closed: bool,
}

/// A bounded, closable, weighted-round-robin multi-tenant queue.
pub struct FairScheduler<T> {
    state: Mutex<SchedState<T>>,
    available: Condvar,
    cap: usize,
}

impl<T> FairScheduler<T> {
    /// An empty queue admitting at most `cap` items (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        FairScheduler {
            state: Mutex::new(SchedState {
                queues: BTreeMap::new(),
                rotation: VecDeque::new(),
                len: 0,
                paused: false,
                closed: false,
            }),
            available: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Admit one item for `tenant`, with the tenant's rotation weight
    /// (clamped to ≥ 1; the latest push's weight wins). Returns the queue
    /// depth after the push, or the shed/closed error.
    pub fn push(&self, tenant: &str, weight: u32, item: T) -> Result<usize, PushError> {
        self.push_capped(tenant, weight, item, self.cap)
    }

    /// [`FairScheduler::push`] past the capacity: for an item that already
    /// holds its place, such as a submission a restarted server recovers
    /// from its store after it was answered 202. Fails only when closed.
    pub fn readmit(&self, tenant: &str, weight: u32, item: T) -> Result<usize, PushError> {
        self.push_capped(tenant, weight, item, usize::MAX)
    }

    fn push_capped(
        &self,
        tenant: &str,
        weight: u32,
        item: T,
        cap: usize,
    ) -> Result<usize, PushError> {
        let mut state = self.state.lock().expect("scheduler lock");
        if state.closed {
            return Err(PushError::Closed);
        }
        if state.len >= cap {
            return Err(PushError::Full(state.len));
        }
        let weight = weight.max(1);
        let q = state
            .queues
            .entry(tenant.to_string())
            .or_insert_with(|| TenantQueue {
                items: VecDeque::new(),
                credit: weight,
                weight,
            });
        q.weight = weight;
        let newly_active = q.items.is_empty();
        q.items.push_back(item);
        if newly_active {
            q.credit = weight;
        }
        if newly_active {
            state.rotation.push_back(tenant.to_string());
        }
        state.len += 1;
        let depth = state.len;
        drop(state);
        self.available.notify_one();
        Ok(depth)
    }

    /// Pop the next item under the rotation, blocking while the queue is
    /// empty or paused. `None` once the queue is closed; items still queued
    /// then stay for [`FairScheduler::drain`].
    pub fn pop_wait(&self) -> Option<T> {
        let mut state = self.state.lock().expect("scheduler lock");
        loop {
            if state.closed {
                return None;
            }
            if !state.paused {
                if let Some(item) = Self::pop_locked(&mut state) {
                    return Some(item);
                }
            }
            state = self.available.wait(state).expect("scheduler lock");
        }
    }

    fn pop_locked(state: &mut SchedState<T>) -> Option<T> {
        let tenant = state.rotation.front()?.clone();
        let q = state
            .queues
            .get_mut(&tenant)
            .expect("rotation entry has a queue");
        let item = q.items.pop_front().expect("rotated tenant has items");
        state.len -= 1;
        q.credit = q.credit.saturating_sub(1);
        if q.items.is_empty() {
            // Tenant drained: leave the rotation; it re-enters (with fresh
            // credit) on its next push.
            state.rotation.pop_front();
        } else if q.credit == 0 {
            // Visit exhausted: refill and move to the back of the rotation.
            q.credit = q.weight;
            state.rotation.rotate_left(1);
        }
        Some(item)
    }

    /// Total queued items.
    pub fn len(&self) -> usize {
        self.state.lock().expect("scheduler lock").len
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pause or resume handing items out. Pushes are still admitted while
    /// paused; resuming wakes every blocked popper.
    pub fn set_paused(&self, paused: bool) {
        self.state.lock().expect("scheduler lock").paused = paused;
        self.available.notify_all();
    }

    /// Is the queue paused?
    pub fn is_paused(&self) -> bool {
        self.state.lock().expect("scheduler lock").paused
    }

    /// Close the queue: subsequent pushes fail with [`PushError::Closed`]
    /// and every blocked popper wakes and returns `None`.
    pub fn close(&self) {
        self.state.lock().expect("scheduler lock").closed = true;
        self.available.notify_all();
    }

    /// Remove and return every queued item (rotation order), e.g. to mark
    /// never-started submissions as cancelled during a drain.
    pub fn drain(&self) -> Vec<T> {
        let mut state = self.state.lock().expect("scheduler lock");
        let mut out = Vec::with_capacity(state.len);
        while let Some(item) = Self::pop_locked(&mut state) {
            out.push(item);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    #[test]
    fn fifo_within_a_single_tenant() {
        let q = FairScheduler::new(16);
        for i in 0..5 {
            q.push("a", 1, i).unwrap();
        }
        assert_eq!(q.drain(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn single_interactive_item_pops_within_one_rotation_of_a_bulk_sweep() {
        let q = FairScheduler::new(64);
        for i in 0..20 {
            q.push("bulk", 1, format!("bulk{i}")).unwrap();
        }
        q.push("interactive", 1, "urgent".to_string()).unwrap();
        let popped = q.drain();
        let pos = popped.iter().position(|s| s == "urgent").unwrap();
        assert!(
            pos <= 1,
            "interactive item must pop in the first rotation, popped at {pos}: {popped:?}"
        );
    }

    #[test]
    fn weights_control_items_per_visit() {
        let q = FairScheduler::new(64);
        for i in 0..6 {
            q.push("heavy", 3, format!("h{i}")).unwrap();
        }
        for i in 0..2 {
            q.push("light", 1, format!("l{i}")).unwrap();
        }
        // heavy pops 3 per visit, light 1: h0 h1 h2 l0 h3 h4 h5 l1.
        assert_eq!(
            q.drain(),
            vec!["h0", "h1", "h2", "l0", "h3", "h4", "h5", "l1"]
        );
    }

    #[test]
    fn full_queue_sheds_with_depth() {
        let q = FairScheduler::new(3);
        for i in 0..3 {
            q.push("t", 1, i).unwrap();
        }
        assert_eq!(q.push("t", 1, 99), Err(PushError::Full(3)));
        assert_eq!(q.push("other", 1, 99), Err(PushError::Full(3)));
        // Popping one frees one slot.
        assert_eq!(q.pop_wait(), Some(0));
        assert_eq!(q.push("t", 1, 99), Ok(3));
    }

    #[test]
    fn readmitted_items_pass_the_cap_and_keep_their_turn() {
        let q = FairScheduler::new(1);
        assert_eq!(q.readmit("t", 1, 1), Ok(1));
        assert_eq!(q.readmit("t", 1, 2), Ok(2));
        assert_eq!(q.push("other", 1, 3), Err(PushError::Full(2)));
        assert_eq!(q.pop_wait(), Some(1));
        assert_eq!(q.pop_wait(), Some(2));
        q.close();
        assert_eq!(q.readmit("t", 1, 4), Err(PushError::Closed));
    }

    /// Run `pop_wait` on its own thread; the receiver yields its result.
    /// Returns once the popper is about to call `pop_wait`.
    fn spawn_popper(q: &Arc<FairScheduler<u32>>) -> mpsc::Receiver<Option<u32>> {
        let (tx, rx) = mpsc::channel();
        let ready = Arc::new(Barrier::new(2));
        let (q, popper_ready) = (Arc::clone(q), Arc::clone(&ready));
        std::thread::spawn(move || {
            popper_ready.wait();
            let _ = tx.send(q.pop_wait());
        });
        ready.wait();
        rx
    }

    /// How long a popper must stay blocked for a test to call it blocked.
    const STILL_BLOCKED: Duration = Duration::from_millis(50);
    /// How long a woken popper may take to return.
    const WAKE_BOUND: Duration = Duration::from_secs(5);

    #[test]
    fn paused_queue_hands_nothing_out_until_resumed() {
        let q = Arc::new(FairScheduler::new(4));
        q.set_paused(true);
        let popped = spawn_popper(&q);
        // The push wakes the popper, which must see the pause and block on.
        q.push("t", 1, 7).unwrap();
        assert_eq!(
            popped.recv_timeout(STILL_BLOCKED),
            Err(RecvTimeoutError::Timeout),
            "an item pushed while paused must not be handed out"
        );
        assert!(q.is_paused());
        q.set_paused(false);
        assert_eq!(
            popped.recv_timeout(WAKE_BOUND),
            Ok(Some(7)),
            "resume must wake the blocked popper"
        );
        assert!(!q.is_paused());
    }

    #[test]
    fn close_rejects_pushes_and_wakes_poppers() {
        let q = Arc::new(FairScheduler::new(4));
        let popped = spawn_popper(&q);
        assert_eq!(
            popped.recv_timeout(STILL_BLOCKED),
            Err(RecvTimeoutError::Timeout),
            "an idle queue blocks its popper"
        );
        q.close();
        assert_eq!(
            popped.recv_timeout(WAKE_BOUND),
            Ok(None),
            "close must wake the popper"
        );
        assert_eq!(q.push("t", 1, 1), Err(PushError::Closed));
    }

    #[test]
    fn close_wakes_a_paused_popper_and_leaves_items_for_drain() {
        let q = Arc::new(FairScheduler::new(4));
        q.set_paused(true);
        q.push("a", 1, 7).unwrap();
        q.push("b", 1, 8).unwrap();
        let popped = spawn_popper(&q);
        assert_eq!(
            popped.recv_timeout(STILL_BLOCKED),
            Err(RecvTimeoutError::Timeout)
        );
        q.close();
        assert_eq!(popped.recv_timeout(WAKE_BOUND), Ok(None));
        // Closed and no longer paused: pop_wait still hands nothing out.
        q.set_paused(false);
        assert_eq!(q.pop_wait(), None);
        assert_eq!(q.drain(), vec![7, 8]);
        assert!(q.is_empty());
    }
}
