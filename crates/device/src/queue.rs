//! Asynchronous activity queues on a virtual clock.
//!
//! The paper's async tests (Fig. 10) launch a large kernel with
//! `async(tag)`, immediately call `acc_async_test(tag)` expecting 0, then
//! `wait(tag)` and expect nonzero. Real runtimes give this behaviour through
//! driver streams; the simulator gives it deterministically: every operation
//! advances a virtual clock, an async activity completes at
//! `enqueue_time + cost`, and `wait` jumps the clock forward. Host-visible
//! side effects of async work (deferred copyouts) are stored with the
//! activity and released by the caller when the activity completes.

use std::collections::HashMap;

/// The virtual clock: monotonically advancing simulated ticks.
#[derive(Debug, Default, Clone, Copy)]
pub struct VirtualClock {
    now: u64,
}

impl VirtualClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advance by `ticks`.
    #[inline]
    pub fn advance(&mut self, ticks: u64) {
        self.now += ticks;
    }

    /// Jump forward to at least `t` (never backwards).
    pub fn advance_to(&mut self, t: u64) {
        if t > self.now {
            self.now = t;
        }
    }
}

/// An async activity tag. OpenACC async arguments are integer expressions;
/// `async` without an argument uses a distinct implementation-defined queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsyncTag {
    /// `async(n)`.
    Numbered(i64),
    /// Bare `async`.
    Default,
}

/// An enqueued activity: when it completes and an opaque payload id for the
/// deferred host-visible effects (the machine keeps the actual effect list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Activity {
    /// Completion timestamp.
    pub completes_at: u64,
    /// Caller-chosen payload identifier (index into the machine's deferred-
    /// effect arena).
    pub payload: u64,
}

/// Per-tag activity queues.
#[derive(Debug, Default)]
pub struct AsyncQueues {
    queues: HashMap<AsyncTag, Vec<Activity>>,
}

impl AsyncQueues {
    /// Fresh empty queues.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enqueue an activity on `tag` completing at `completes_at`.
    pub fn enqueue(&mut self, tag: AsyncTag, completes_at: u64, payload: u64) {
        self.queues.entry(tag).or_default().push(Activity {
            completes_at,
            payload,
        });
    }

    /// Are all activities on `tag` complete at time `now`?
    /// An empty/unknown tag is trivially complete.
    pub fn tag_done(&self, tag: AsyncTag, now: u64) -> bool {
        self.queues
            .get(&tag)
            .map(|q| q.iter().all(|a| a.completes_at <= now))
            .unwrap_or(true)
    }

    /// Are all activities on all tags complete at time `now`?
    pub fn all_done(&self, now: u64) -> bool {
        self.queues
            .values()
            .all(|q| q.iter().all(|a| a.completes_at <= now))
    }

    /// The completion time of the latest activity on `tag` (None when the
    /// queue is empty).
    pub fn tag_completion(&self, tag: AsyncTag) -> Option<u64> {
        self.queues
            .get(&tag)
            .and_then(|q| q.iter().map(|a| a.completes_at).max())
    }

    /// The completion time of the latest activity on any tag.
    pub fn all_completion(&self) -> Option<u64> {
        self.queues
            .values()
            .flat_map(|q| q.iter().map(|a| a.completes_at))
            .max()
    }

    /// Remove and return the payloads of all activities on `tag` that are
    /// complete at `now`, in enqueue order.
    pub fn drain_complete(&mut self, tag: AsyncTag, now: u64) -> Vec<u64> {
        let mut out = Vec::new();
        if let Some(q) = self.queues.get_mut(&tag) {
            let mut i = 0;
            while i < q.len() {
                if q[i].completes_at <= now {
                    out.push(q.remove(i).payload);
                } else {
                    i += 1;
                }
            }
        }
        out
    }

    /// Remove and return payloads of all complete activities on every tag,
    /// in deterministic (tag-sorted) order.
    pub fn drain_all_complete(&mut self, now: u64) -> Vec<u64> {
        let mut tags: Vec<AsyncTag> = self.queues.keys().copied().collect();
        tags.sort_by_key(|t| match t {
            AsyncTag::Default => (0, 0),
            AsyncTag::Numbered(n) => (1, *n),
        });
        let mut out = Vec::new();
        for t in tags {
            out.extend(self.drain_complete(t, now));
        }
        out
    }

    /// Number of pending (incomplete) activities at `now`.
    pub fn pending(&self, now: u64) -> usize {
        self.queues
            .values()
            .flat_map(|q| q.iter())
            .filter(|a| a.completes_at > now)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let mut c = VirtualClock::new();
        c.advance(5);
        assert_eq!(c.now(), 5);
        c.advance_to(3); // never backwards
        assert_eq!(c.now(), 5);
        c.advance_to(9);
        assert_eq!(c.now(), 9);
    }

    #[test]
    fn async_test_semantics() {
        let mut q = AsyncQueues::new();
        let mut clock = VirtualClock::new();
        clock.advance(10);
        // Launch at t=10 costing 100: completes at 110.
        q.enqueue(AsyncTag::Numbered(1), 110, 0);
        clock.advance(2); // host does a couple of statements
        assert!(
            !q.tag_done(AsyncTag::Numbered(1), clock.now()),
            "immediately after launch: not done"
        );
        // wait(tag): jump the clock to completion.
        clock.advance_to(q.tag_completion(AsyncTag::Numbered(1)).unwrap());
        assert!(q.tag_done(AsyncTag::Numbered(1), clock.now()));
    }

    #[test]
    fn unknown_tag_is_trivially_done() {
        let q = AsyncQueues::new();
        assert!(q.tag_done(AsyncTag::Numbered(42), 0));
        assert!(q.all_done(0));
        assert_eq!(q.tag_completion(AsyncTag::Numbered(42)), None);
    }

    #[test]
    fn tags_are_independent() {
        let mut q = AsyncQueues::new();
        q.enqueue(AsyncTag::Numbered(1), 50, 0);
        q.enqueue(AsyncTag::Numbered(2), 100, 1);
        assert!(q.tag_done(AsyncTag::Numbered(1), 60));
        assert!(!q.tag_done(AsyncTag::Numbered(2), 60));
        assert!(!q.all_done(60));
        assert!(q.all_done(100));
        assert_eq!(q.all_completion(), Some(100));
    }

    #[test]
    fn drain_returns_payloads_in_order() {
        let mut q = AsyncQueues::new();
        q.enqueue(AsyncTag::Default, 10, 7);
        q.enqueue(AsyncTag::Default, 20, 8);
        q.enqueue(AsyncTag::Default, 30, 9);
        assert_eq!(q.drain_complete(AsyncTag::Default, 25), vec![7, 8]);
        assert_eq!(q.pending(25), 1);
        assert_eq!(q.drain_complete(AsyncTag::Default, 25), Vec::<u64>::new());
        assert_eq!(q.drain_complete(AsyncTag::Default, 30), vec![9]);
    }

    #[test]
    fn drain_all_is_deterministic() {
        let mut q = AsyncQueues::new();
        q.enqueue(AsyncTag::Numbered(5), 10, 50);
        q.enqueue(AsyncTag::Numbered(1), 10, 10);
        q.enqueue(AsyncTag::Default, 10, 0);
        assert_eq!(q.drain_all_complete(10), vec![0, 10, 50]);
    }
}
