//! Property-based tests of the RAG's soundness guarantees.

use dimmunix_rag::{DeadlockCycle, LockId, Rag, ThreadId, YieldCause};
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

/// Arbitrary (even ill-formed) event streams: `(op, thread, lock)`, applied
/// by [`apply`].
fn arb_events() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    prop::collection::vec((0_u8..7, 0_u8..4, 0_u8..4), 0..200)
}

/// Applies one event of [`arb_events`]. Each edge is labelled by its
/// `(thread, lock)` pair, so cycles through different edges carry different
/// labels; a yield names the next thread's hold on the next lock as cause.
fn apply(rag: &mut Rag, (op, t, l): (u8, u8, u8)) {
    let label = |t: u8, l: u8| StackId(u32::from(t) * 4 + u32::from(l));
    let s = label(t, l);
    let (tid, lid) = (ThreadId(t.into()), LockId(l.into()));
    match op {
        0 => rag.on_request(tid, lid, s),
        1 => rag.on_go(tid, lid, s),
        2 => rag.on_acquired(tid, lid, s),
        3 => rag.on_release(tid, lid),
        4 => rag.on_granted(tid, lid, s),
        5 => rag.on_cancel(tid, lid),
        _ => {
            let (ct, cl) = ((t + 1) % 4, (l + 1) % 4);
            let cause = YieldCause {
                thread: ThreadId(ct.into()),
                lock: LockId(cl.into()),
                stack: label(ct, cl),
            };
            rag.on_yield(tid, lid, s, vec![cause]);
        }
    }
}

/// One event of a well-formed stream, and the thread whose lane it is on.
#[derive(Clone, Copy, Debug)]
enum Hook {
    Granted(u8, u8),
    Go(u8, u8),
    Acquired(u8, u8),
    Release(u8, u8),
}

impl Hook {
    fn thread(self) -> u8 {
        match self {
            Hook::Granted(t, _) | Hook::Go(t, _) | Hook::Acquired(t, _) | Hook::Release(t, _) => t,
        }
    }

    fn apply(self, rag: &mut Rag) {
        let ids = |t: u8, l: u8| (ThreadId(t.into()), LockId(l.into()));
        let label = |t: u8, l: u8| StackId(u32::from(t) * 8 + u32::from(l));
        match self {
            Hook::Granted(t, l) => {
                let (tid, lid) = ids(t, l);
                rag.on_granted(tid, lid, label(t, l));
            }
            Hook::Go(t, l) => {
                let (tid, lid) = ids(t, l);
                rag.on_go(tid, lid, label(t, l));
            }
            Hook::Acquired(t, l) => {
                let (tid, lid) = ids(t, l);
                rag.on_acquired(tid, lid, label(t, l));
            }
            Hook::Release(t, l) => {
                let (tid, lid) = ids(t, l);
                rag.on_release(tid, lid);
            }
        }
    }
}

/// Runs a small mutex scheduler over `THREADS` threads and `LOCKS` locks
/// and returns the hook events it makes, in real-time order. A step
/// `(t, acquire, l)` has thread `t` take lock `l` (`Granted` if it is
/// free, `Go` if it is taken, after which `t` is blocked) or release its
/// newest lock, which goes to the lowest waiting thread (`Acquired`). A
/// blocked thread's steps, and a take of a lock the thread holds, do
/// nothing, so threads that wait for each other stay deadlocked.
fn schedule(steps: &[(u8, bool, u8)]) -> Vec<Hook> {
    const THREADS: usize = 4;
    let mut held: Vec<Vec<u8>> = vec![Vec::new(); THREADS];
    let mut waiting: Vec<Option<u8>> = vec![None; THREADS];
    let mut owner: Vec<Option<u8>> = vec![None; usize::from(LOCKS)];
    let mut out = Vec::new();
    for &(t, acquire, l) in steps {
        let ti = usize::from(t);
        if waiting[ti].is_some() {
            continue;
        }
        if acquire {
            match owner[usize::from(l)] {
                Some(o) if o == t => {}
                Some(_) => {
                    waiting[ti] = Some(l);
                    out.push(Hook::Go(t, l));
                }
                None => {
                    owner[usize::from(l)] = Some(t);
                    held[ti].push(l);
                    out.push(Hook::Granted(t, l));
                }
            }
        } else if let Some(l) = held[ti].pop() {
            out.push(Hook::Release(t, l));
            owner[usize::from(l)] = None;
            if let Some(w) = (0..THREADS).find(|&w| waiting[w] == Some(l)) {
                waiting[w] = None;
                let w = w as u8;
                owner[usize::from(l)] = Some(w);
                held[usize::from(w)].push(l);
                out.push(Hook::Acquired(w, l));
            }
        }
    }
    out
}

const LOCKS: u8 = 4;

/// Deadlock cycles as a sorted list, each rotated to start at its lowest
/// thread: which thread a search starts from decides only the rotation.
fn normalized(cycles: Vec<DeadlockCycle>) -> Vec<Vec<(ThreadId, LockId, StackId)>> {
    let mut out: Vec<_> = cycles
        .into_iter()
        .map(|c| {
            let mut edges: Vec<_> = (0..c.threads.len())
                .map(|i| (c.threads[i], c.locks[i], c.labels[i]))
                .collect();
            let first = (0..edges.len()).min_by_key(|&i| edges[i].0).unwrap_or(0);
            edges.rotate_left(first);
            edges
        })
        .collect();
    out.sort();
    out
}

/// Everything the monitor reads off a graph once all events are applied.
fn converged(rag: &mut Rag) -> String {
    let held: Vec<_> = (0..4).map(|t| rag.held_locks(ThreadId(t))).collect();
    format!(
        "{:?} {:?} {:?} {:?} {:?}",
        normalized(rag.find_deadlock_cycles()),
        rag.find_yield_cycles(),
        held,
        rag.awaited_unheld(),
        rag.stats()
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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
    fn arbitrary_events_never_panic(ops in arb_events()) {
        let mut rag = Rag::new();
        for op in ops {
            apply(&mut rag, op);
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

    /// Two graphs fed the same event stream report the same cycles in the
    /// same order, down to the order of each cycle's threads and labels. The
    /// monitor saves signatures and calls hooks in report order, so one
    /// schedule must do both in one order in every process: no map behind
    /// detection may be seeded per instance.
    #[test]
    fn same_events_report_cycles_in_one_order(ops in arb_events()) {
        let (mut a, mut b) = (Rag::new(), Rag::new());
        for op in ops {
            apply(&mut a, op);
            apply(&mut b, op);
            prop_assert_eq!(
                format!("{:?}", a.find_deadlock_cycles()),
                format!("{:?}", b.find_deadlock_cycles())
            );
            prop_assert_eq!(
                format!("{:?}", a.find_yield_cycles()),
                format!("{:?}", b.find_yield_cycles())
            );
        }
    }

    /// The monitor applies a pass lane by lane, not in the order the hooks
    /// ran: within a pass, a thread's `Acquired` of a handed-off lock can
    /// come before the previous holder's `Release`, so for a while the
    /// graph shows two holds of one mutex. Once every event is applied, the
    /// graph must have converged to what real-time order leaves: the same
    /// deadlock cycles up to rotation, the same yield cycles, holds,
    /// awaited-but-unheld locks and sizes.
    #[test]
    fn lane_order_converges_to_real_time_order(
        steps in prop::collection::vec((0_u8..4, any::<bool>(), 0_u8..LOCKS), 0..120),
        passes in prop::collection::vec(1_usize..24, 1..16),
    ) {
        let events = schedule(&steps);
        let mut real_time = Rag::new();
        for &e in &events {
            e.apply(&mut real_time);
        }
        let mut lanes = Rag::new();
        let mut rest = &events[..];
        for &len in passes.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (pass, later) = rest.split_at(len.min(rest.len()));
            for lane in 0..4 {
                for &e in pass.iter().filter(|e| e.thread() == lane) {
                    e.apply(&mut lanes);
                }
            }
            rest = later;
        }
        prop_assert_eq!(converged(&mut lanes), converged(&mut real_time));
    }
}
