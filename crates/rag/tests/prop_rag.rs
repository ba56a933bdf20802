//! Property-based tests of the RAG's soundness guarantees.

use dimmunix_rag::{LockId, Rag, ThreadId, YieldCause};
use dimmunix_signature::StackId;
use proptest::prelude::*;

const S: StackId = StackId(0);

/// Ordered lock acquisition (a total order on lock ids, LIFO release) can
/// never deadlock — the RAG must agree, whatever the interleaving.
#[derive(Clone, Debug)]
enum Step {
    Acquire(u8, u8),
    ReleaseNewest(u8),
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            (0_u8..6, 0_u8..6).prop_map(|(t, l)| Step::Acquire(t, l)),
            (0_u8..6).prop_map(Step::ReleaseNewest),
        ],
        0..120,
    )
}

proptest! {
    /// §5.7: "Dimmunix never adds a false deadlock to the history." With
    /// globally ordered acquisition there is no deadlock, so the detector
    /// must stay silent through any event interleaving.
    #[test]
    fn ordered_acquisition_never_reports_deadlock(steps in arb_steps()) {
        let mut rag = Rag::new();
        // Per-thread stack of held locks (ascending ids only).
        let mut held: Vec<Vec<u8>> = vec![Vec::new(); 6];
        let mut waiting: Vec<Option<u8>> = vec![None; 6];
        let mut owner: Vec<Option<u8>> = vec![None; 6];
        for step in steps {
            match step {
                Step::Acquire(t, l) => {
                    let ti = t as usize;
                    if waiting[ti].is_some() {
                        continue; // Already blocked.
                    }
                    // Respect the global order: only acquire locks greater
                    // than everything held.
                    if held[ti].last().is_some_and(|&top| l <= top) {
                        continue;
                    }
                    rag.on_go(ThreadId(t.into()), LockId(l.into()), S);
                    if owner[l as usize].is_none() {
                        rag.on_acquired(ThreadId(t.into()), LockId(l.into()), S);
                        owner[l as usize] = Some(t);
                        held[ti].push(l);
                    } else {
                        waiting[ti] = Some(l);
                    }
                }
                Step::ReleaseNewest(t) => {
                    let ti = t as usize;
                    let Some(l) = held[ti].pop() else { continue };
                    rag.on_release(ThreadId(t.into()), LockId(l.into()));
                    owner[l as usize] = None;
                    // Hand off to a waiter, if any.
                    if let Some(w) = (0..6).find(|&w| waiting[w] == Some(l)) {
                        waiting[w] = None;
                        rag.on_acquired(ThreadId(w as u64), LockId(l.into()), S);
                        owner[l as usize] = Some(w as u8);
                        held[w].push(l);
                    }
                }
            }
            prop_assert!(
                rag.find_deadlock_cycles().is_empty(),
                "ordered locking must never deadlock"
            );
            prop_assert!(rag.find_yield_cycles().is_empty());
        }
    }

    /// A ring of N threads each holding lock i and requesting lock i+1 is
    /// exactly one deadlock cycle with N hold labels.
    #[test]
    fn ring_produces_one_cycle(n in 2_u64..12) {
        let mut rag = Rag::new();
        for i in 0..n {
            rag.on_go(ThreadId(i), LockId(i), StackId(i as u32));
            rag.on_acquired(ThreadId(i), LockId(i), StackId(i as u32));
        }
        for i in 0..n {
            rag.on_go(ThreadId(i), LockId((i + 1) % n), S);
        }
        let cycles = rag.find_deadlock_cycles();
        prop_assert_eq!(cycles.len(), 1);
        prop_assert_eq!(cycles[0].threads.len(), n as usize);
        let mut labels: Vec<u32> = cycles[0].labels.iter().map(|s| s.0).collect();
        labels.sort_unstable();
        prop_assert_eq!(labels, (0..n as u32).collect::<Vec<_>>());
    }

    /// `on_granted` — what the monitor applies for an uncontended grant —
    /// leaves exactly the graph `on_go; on_acquired` leaves, from any prior
    /// state: live yield edges, a request or allow edge on this or another
    /// lock, other threads waiting on the lock, detection pending or not.
    #[test]
    fn granted_equals_go_then_acquired(
        prior in prop::collection::vec((0_u8..7, 0_u8..4, 0_u8..4, 0_u32..3), 0..60),
        detect in any::<bool>(),
        t in 0_u8..4,
        l in 0_u8..4,
        s in 0_u32..3,
    ) {
        let mut fused = Rag::new();
        for (op, t, l, s) in prior {
            let (t, l, s) = (ThreadId(t.into()), LockId(l.into()), StackId(s));
            match op {
                0 => fused.on_request(t, l, s),
                1 => fused.on_go(t, l, s),
                2 => fused.on_acquired(t, l, s),
                3 => fused.on_release(t, l),
                4 => fused.on_cancel(t, l),
                5 => fused.on_granted(t, l, s),
                _ => {
                    // Yield on `l` because of the next thread's hold on the
                    // next lock.
                    let cause = YieldCause {
                        thread: ThreadId((t.0 + 1) % 4),
                        lock: LockId((l.0 + 1) % 4),
                        stack: s,
                    };
                    fused.on_yield(t, l, s, vec![cause]);
                }
            }
        }
        if detect {
            let _ = fused.find_deadlock_cycles(); // consumes the dirty marks
        }
        let mut paired = fused.clone();
        let (t, l, s) = (ThreadId(t.into()), LockId(l.into()), StackId(s));
        fused.on_granted(t, l, s);
        paired.on_go(t, l, s);
        paired.on_acquired(t, l, s);
        prop_assert!(fused == paired, "fused {fused:?} vs paired {paired:?}");
        prop_assert_eq!(dimmunix_rag::dot::to_dot(&fused), dimmunix_rag::dot::to_dot(&paired));
    }

    /// Arbitrary (even ill-formed) event sequences never panic the graph,
    /// and stats stay self-consistent.
    #[test]
    fn arbitrary_events_never_panic(ops in prop::collection::vec((0_u8..6, 0_u8..4, 0_u8..4), 0..200)) {
        let mut rag = Rag::new();
        for (op, t, l) in ops {
            let t = ThreadId(t.into());
            let l = LockId(l.into());
            match op {
                0 => rag.on_request(t, l, S),
                1 => rag.on_go(t, l, S),
                2 => rag.on_acquired(t, l, S),
                3 => rag.on_release(t, l),
                4 => rag.on_granted(t, l, S),
                _ => rag.on_cancel(t, l),
            }
            let _ = rag.find_deadlock_cycles();
            let _ = rag.find_yield_cycles();
            let stats = rag.stats();
            prop_assert!(stats.wait_edges <= stats.threads);
        }
        // Exiting every thread empties the graph's edges.
        for t in 0..4 {
            rag.on_thread_exit(ThreadId(t));
        }
        let stats = rag.stats();
        prop_assert_eq!(stats.threads, 0);
        prop_assert_eq!(stats.hold_edges, 0);
        prop_assert_eq!(stats.wait_edges, 0);
        prop_assert_eq!(stats.yield_edges, 0);
    }
}
