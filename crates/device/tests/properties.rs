//! Property tests on the device substrate: memory/present-table invariants
//! and queue semantics.

use acc_ast::ScalarType;
use acc_device::memory::{DeviceMemory, ExitAction, PresentEntry, PresentTable};
use acc_device::queue::{AsyncQueues, AsyncTag, VirtualClock};
use acc_device::{ArrayData, BufferId};
use proptest::prelude::*;

proptest! {
    #[test]
    fn upload_download_round_trips_any_section(
        len in 1usize..128,
        start_frac in 0.0f64..1.0,
        len_frac in 0.0f64..1.0,
        vals in prop::collection::vec(-1000i64..1000, 128),
    ) {
        let start = ((len - 1) as f64 * start_frac) as usize;
        let sec_len = 1 + ((len - start - 1) as f64 * len_frac) as usize;
        let host = ArrayData::Int(vals[..len].to_vec());
        let mut mem = DeviceMemory::new();
        let buf = mem.alloc(ScalarType::Int, vec![len]);
        mem.upload(buf, &host, start, sec_len).unwrap();
        let mut back = ArrayData::Int(vec![0; len]);
        mem.download(buf, &mut back, start, sec_len).unwrap();
        for i in start..start + sec_len {
            prop_assert_eq!(back.get(i), host.get(i));
        }
        // Outside the section stays zero.
        for i in (0..start).chain(start + sec_len..len) {
            prop_assert_eq!(back.get(i).unwrap().as_int().unwrap(), 0);
        }
    }

    #[test]
    fn alloc_free_never_leaks(ops in prop::collection::vec(1usize..64, 1..40)) {
        let mut mem = DeviceMemory::new();
        let mut live = Vec::new();
        for (k, n) in ops.iter().enumerate() {
            if k % 3 == 2 && !live.is_empty() {
                let buf: BufferId = live.swap_remove(k % live.len());
                mem.free(buf).unwrap();
            } else {
                live.push(mem.alloc(ScalarType::Double, vec![*n]));
            }
        }
        prop_assert_eq!(mem.live_buffers(), live.len());
        for buf in live.drain(..) {
            mem.free(buf).unwrap();
        }
        prop_assert_eq!(mem.live_buffers(), 0);
        prop_assert_eq!(mem.allocated_bytes, 0);
    }

    #[test]
    fn present_table_refcounts_balance(reenters in 0u32..10) {
        let mut t = PresentTable::new();
        t.insert("v", PresentEntry {
            buffer: BufferId(1),
            start: 0,
            len: 4,
            exit_action: ExitAction::CopyOut,
            refcount: 1,
        });
        for _ in 0..reenters {
            prop_assert!(t.reenter("v"));
        }
        // Exactly `reenters` exits keep the entry; the final exit releases.
        for _ in 0..reenters {
            prop_assert!(t.exit("v").unwrap().is_none());
            prop_assert!(t.contains("v"));
        }
        let released = t.exit("v").unwrap();
        prop_assert!(released.is_some());
        prop_assert!(!t.contains("v"));
    }

    #[test]
    fn queue_completion_matches_max_timestamp(
        times in prop::collection::vec(1u64..1000, 1..20),
    ) {
        let mut q = AsyncQueues::new();
        for (i, t) in times.iter().enumerate() {
            q.enqueue(AsyncTag::Numbered(1), *t, i as u64);
        }
        let max = *times.iter().max().unwrap();
        prop_assert_eq!(q.tag_completion(AsyncTag::Numbered(1)), Some(max));
        prop_assert!(!q.tag_done(AsyncTag::Numbered(1), max - 1));
        prop_assert!(q.tag_done(AsyncTag::Numbered(1), max));
        // Draining at the max yields every payload exactly once.
        let mut payloads = q.drain_complete(AsyncTag::Numbered(1), max);
        payloads.sort_unstable();
        let expected: Vec<u64> = (0..times.len() as u64).collect();
        prop_assert_eq!(payloads, expected);
    }

    #[test]
    fn clock_never_goes_backwards(jumps in prop::collection::vec(0u64..500, 1..30)) {
        let mut c = VirtualClock::new();
        let mut last = 0;
        for (i, j) in jumps.iter().enumerate() {
            if i % 2 == 0 {
                c.advance(*j);
            } else {
                c.advance_to(*j);
            }
            prop_assert!(c.now() >= last);
            last = c.now();
        }
    }

    #[test]
    fn garbage_never_matches_small_constants(
        len in 1usize..64,
        seed in 0u64..1000,
        probe in -100i64..100,
    ) {
        let g = ArrayData::garbage(ScalarType::Int, len, seed);
        for i in 0..len {
            prop_assert_ne!(g.get(i).unwrap().as_int().unwrap(), probe);
        }
    }
}
