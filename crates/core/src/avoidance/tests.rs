//! White-box tests of the per-thread held-lock stack ([`AllowedLog`]): its
//! pops against the per-lock `HashMap<LockId, Vec<_>>` it replaced (kept
//! here as the oracle), the exit sweep, and the rebuild's visit: its bucket
//! order, that appends racing it are applied once, and that buckets equal
//! the logs after every live rebuild; the slots a held entry remembers
//! across both kinds of rebuild; and the bounded-retry cover fallback.

use super::*;
use crate::runtime::Runtime;
use dimmunix_signature::{suffix_of, CycleKind};
use proptest::prelude::*;
use std::collections::HashMap;

/// The earlier design's log: `lock → stack` per nesting level.
type Model = HashMap<LockId, Vec<StackId>>;

fn model_pop(model: &mut Model, l: LockId) {
    if let Some(levels) = model.get_mut(&l) {
        levels.pop();
        if levels.is_empty() {
            model.remove(&l);
        }
    }
}

/// The parent's sweep order: lock ids ascending, nesting levels in push
/// order.
fn model_sweep_order(model: &Model) -> Vec<(LockId, StackId)> {
    let mut locks: Vec<LockId> = model.keys().copied().collect();
    locks.sort_unstable();
    locks
        .into_iter()
        .flat_map(|l| model[&l].iter().map(move |&stack| (l, stack)))
        .collect()
}

/// Interns `frames` (as `(function, line)` pairs of one file) and returns
/// the frame ids with their stack id.
fn site(rt: &Runtime, frames: &[(&str, u32)]) -> (Vec<FrameId>, StackId) {
    let ids: Vec<FrameId> = frames
        .iter()
        .map(|&(function, line)| rt.frame_table().intern(function, "held.rs", line))
        .collect();
    let stack = rt.stack_table().intern(&ids);
    (ids, stack)
}

/// The raw `(thread, lock, stack)` records of the bucket `frames` maps to
/// at `depth`, in storage order.
fn bucket_of(core: &AvoidanceCore, depth: u8, frames: &[FrameId]) -> Vec<AllowedEntry> {
    let view = core.view_cell.load();
    let slot = view
        .layout
        .slot_of(depth, suffix_of(frames, depth as usize))
        .expect("the frames end a signature-member suffix");
    let mut raw = Vec::new();
    view.table.buckets[slot as usize].read_into(&mut raw);
    raw.into_iter().map(AllowedEntry::decode).collect()
}

#[derive(Clone, Debug)]
enum Op {
    /// `request` + `acquired` of lock `.0` along path `.1`.
    Lock(usize, usize),
    /// `acquired_reentrant`: one more nesting level of lock `.0`.
    Reenter(usize, usize),
    /// `release` of lock `.0`, held or not, innermost or not.
    Release(usize),
    /// `cancel` of lock `.0`.
    Cancel(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0_usize..5, 0_usize..6).prop_map(|(l, p)| Op::Lock(l, p)),
            (0_usize..5, 0_usize..6).prop_map(|(l, p)| Op::Lock(l, p)),
            (0_usize..5, 0_usize..6).prop_map(|(l, p)| Op::Reenter(l, p)),
            (0_usize..5).prop_map(Op::Release),
            (0_usize..5).prop_map(Op::Release),
            (0_usize..5).prop_map(Op::Cancel),
        ],
        0..80,
    )
}

/// Checks the slot's log against the model.
fn assert_matches_model(core: &AvoidanceCore, t: ThreadId, model: &Model) {
    let log = core.me(t).allowed.lock();
    for (&l, levels) in model {
        let held: Vec<StackId> = log
            .entries
            .iter()
            .filter(|held| held.l == l)
            .map(|held| held.stack)
            .collect();
        assert_eq!(&held, levels, "nesting levels of {l:?}");
    }
    let live: usize = model.values().map(Vec::len).sum();
    assert_eq!(log.entries.len(), live);
}

proptest! {
    /// Differential: over random lock / re-enter / release / cancel
    /// sequences — unlocks in any order, of locks held or not, along
    /// paths that include the empty stack and one that is bucketed — the
    /// stack pops what the per-lock map pops.
    #[test]
    fn held_stack_equals_per_lock_map(ops in arb_ops()) {
        let rt = Runtime::new(Config::default()).unwrap();
        let core = rt.core();
        let paths = [
            site(&rt, &[]),
            site(&rt, &[("main", 1)]),
            site(&rt, &[("main", 1), ("update", 2)]),
            site(&rt, &[("serve", 3), ("update", 2)]),
            site(&rt, &[("main", 1), ("flush", 4), ("update", 2)]),
            site(&rt, &[("main", 1), ("retry", 5)]),
        ];
        // Depth 1: every path ending in `update` or `retry` is bucketed.
        rt.history()
            .add(CycleKind::Deadlock, vec![paths[2].1, paths[5].1], 1)
            .unwrap();
        let t = core.register_thread().unwrap();
        let locks: Vec<LockId> = (0..5).map(|_| rt.new_lock_id()).collect();
        let mut model = Model::new();
        for op in ops {
            match op {
                Op::Lock(l, p) | Op::Reenter(l, p) => {
                    let (frames, stack) = &paths[p];
                    if matches!(op, Op::Lock(..)) {
                        let d = core.request(t, locks[l], frames, *stack);
                        prop_assert!(matches!(d, Decision::Go), "one thread never yields");
                        core.acquired(t, locks[l], *stack);
                    } else {
                        core.acquired_reentrant(t, locks[l], frames, *stack);
                    }
                    model.entry(locks[l]).or_default().push(*stack);
                }
                Op::Release(l) | Op::Cancel(l) => {
                    // What was popped shows in the levels that remain.
                    model_pop(&mut model, locks[l]);
                    if matches!(op, Op::Release(_)) {
                        prop_assert!(core.release(t, locks[l]).is_empty());
                    } else {
                        core.cancel(t, locks[l]);
                    }
                }
            }
            assert_matches_model(core, t, &model);
        }
        // Unwind whatever is still held: the buckets drain with the log.
        for (l, levels) in model.clone() {
            for _ in levels {
                core.release(t, l);
                model_pop(&mut model, l);
                assert_matches_model(core, t, &model);
            }
        }
        prop_assert_eq!(core.occupancy_skew().live_entries, 0);
        core.unregister_thread(t);
    }
}

/// A thread dies holding three locks, one of them entered twice more, with
/// a yielder parked on each: the exit sweep empties the buckets and the
/// stack, wakes every yielder once and counts the wakes as orphaned.
#[test]
fn exit_sweep_drains_a_nested_stack_and_wakes_every_yielder() {
    let rt = Runtime::new(Config::default()).unwrap();
    let core = rt.core();
    // One two-member signature per held lock: the holder's path and the
    // path its yielder comes in on.
    let held_paths: Vec<_> = (0..3)
        .map(|i| site(&rt, &[("holder", i), ("take", 10)]))
        .collect();
    let yield_paths: Vec<_> = (0..3)
        .map(|i| site(&rt, &[("waiter", i), ("take", 20)]))
        .collect();
    for (held, waiting) in held_paths.iter().zip(&yield_paths) {
        rt.history()
            .add(CycleKind::Deadlock, vec![held.1, waiting.1], 4)
            .unwrap();
    }
    let holder = core.register_thread().unwrap();
    let locks: Vec<LockId> = (0..3).map(|_| rt.new_lock_id()).collect();
    for (l, (frames, stack)) in locks.iter().zip(&held_paths) {
        assert!(matches!(
            core.request(holder, *l, frames, *stack),
            Decision::Go
        ));
        core.acquired(holder, *l, *stack);
    }
    for _ in 0..2 {
        let (frames, stack) = &held_paths[1];
        core.acquired_reentrant(holder, locks[1], frames, *stack);
    }
    assert_eq!(core.occupancy_skew().live_entries, 5);
    let before = core.approx_bytes();

    let mut yielders = Vec::new();
    for (i, (frames, stack)) in yield_paths.iter().enumerate() {
        let y = core.register_thread().unwrap();
        let d = core.request(y, rt.new_lock_id(), frames, *stack);
        assert!(matches!(d, Decision::Yield { .. }), "yielder {i}: {d:?}");
        assert_eq!(core.yield_causes(y)[0].lock, locks[i]);
        yielders.push(y);
    }

    let mut woken = Vec::new();
    core.unregister_thread_waking(holder, &mut |t| woken.push(t));
    woken.sort_unstable();
    assert_eq!(woken, yielders, "each yielder woken exactly once");
    assert_eq!(rt.stats().orphan_wakes, 3);
    assert_eq!(core.occupancy_skew().live_entries, 0, "buckets emptied");
    assert!(core.me(holder).allowed.lock().entries.is_empty());
    // Five stack entries and their fifteen bucket words are gone.
    let entry = core::mem::size_of::<Held>();
    assert_eq!(before - core.approx_bytes(), 5 * entry + 5 * 3 * 8);
    // The woken yielders' retries find nothing left to yield on.
    for (y, (frames, stack)) in yielders.iter().zip(&yield_paths) {
        let d = core.request(*y, rt.new_lock_id(), frames, *stack);
        assert!(matches!(d, Decision::Go), "{d:?}");
    }
}

/// Builds a log that takes its locks out of id order and nests two of
/// them, under a history that buckets none of it yet. Every entry's two
/// innermost frames end the same depth-2 suffix, so one bucket will
/// receive them all. Returns the thread and the model.
fn nested_log(rt: &Runtime) -> (ThreadId, Model) {
    let core = rt.core();
    let t = core.register_thread().unwrap();
    let locks: Vec<LockId> = (0..4).map(|_| rt.new_lock_id()).collect();
    let mut model = Model::new();
    for (step, (l, reenter)) in [
        (2, false),
        (0, false),
        (2, true),
        (3, false),
        (0, true),
        (2, true),
    ]
    .into_iter()
    .enumerate()
    {
        let (frames, stack) = site(rt, &[("outer", step as u32), ("mid", 7), ("inner", 8)]);
        if reenter {
            core.acquired_reentrant(t, locks[l], &frames, stack);
        } else {
            assert!(matches!(
                core.request(t, locks[l], &frames, stack),
                Decision::Go
            ));
            core.acquired(t, locks[l], stack);
        }
        model.entry(locks[l]).or_default().push(stack);
    }
    (t, model)
}

/// A fresh rebuild and an extending one visit a multi-lock, nested log
/// into the bucket in the same order: lock ids ascending, nesting levels in
/// grant order — what sorting the per-lock map's keys produced.
#[test]
fn full_and_delta_sweeps_bucket_in_lock_id_order() {
    // The member whose depth-2 suffix every entry of `nested_log` ends in.
    let member = |rt: &Runtime| site(rt, &[("m", 0), ("mid", 7), ("inner", 8)]);
    let other = |rt: &Runtime| site(rt, &[("m", 1), ("n", 2), ("o", 3)]).1;
    let expected = |t: ThreadId, model: &Model| -> Vec<AllowedEntry> {
        model_sweep_order(model)
            .into_iter()
            .map(|(l, stack)| AllowedEntry { t, l, stack })
            .collect()
    };

    // Full: a structural change (`touch`) after the log exists.
    let rt = Runtime::new(Config::default()).unwrap();
    let (t, model) = nested_log(&rt);
    let (frames, stack) = member(&rt);
    rt.history()
        .add(CycleKind::Deadlock, vec![stack, other(&rt)], 2)
        .unwrap();
    rt.history().touch();
    let fulls = rt.stats().rebuilds_full;
    rt.core().refresh_published();
    assert_eq!(rt.stats().rebuilds_full, fulls + 1);
    let full = bucket_of(rt.core(), 2, &frames);
    assert_eq!(full, expected(t, &model));

    // Delta: a pure append on top of an unrelated, already-swept history.
    let rt = Runtime::new(Config::default()).unwrap();
    let unrelated = site(&rt, &[("p", 0), ("q", 1), ("r", 2)]).1;
    rt.history()
        .add(CycleKind::Deadlock, vec![unrelated, other(&rt)], 2)
        .unwrap();
    rt.history().touch();
    rt.core().refresh_published();
    let (t, model) = nested_log(&rt);
    let (frames, stack) = member(&rt);
    rt.history()
        .add(CycleKind::Deadlock, vec![stack, other(&rt)], 2)
        .unwrap();
    rt.core().refresh_published();
    assert_eq!(rt.stats().rebuilds_delta, 1);
    let delta = bucket_of(rt.core(), 2, &frames);
    assert_eq!(delta, expected(t, &model));
    // Both runtimes number their locks alike: the two paths agree.
    let locks = |bucket: &[AllowedEntry]| bucket.iter().map(|e| e.l).collect::<Vec<_>>();
    assert_eq!(locks(&full), locks(&delta));
}

/// `Runtime::memory_footprint()` charges the records 64 at a time, so a
/// thread's record must not grow: 720 bytes of slot at an earlier commit
/// (counting filter and hint beside the stack), 136 with the stack alone,
/// then the parker that used to sit in an array of its own. A quiet hold is
/// a state of the grant word, so it costs no byte of its own.
#[cfg(target_pointer_width = "64")]
#[test]
fn thread_slot_is_no_larger_than_at_the_parent_commit() {
    assert!(core::mem::size_of::<ThreadSlot>() <= 136 + core::mem::size_of::<Parker>());
}

/// A runtime makes no thread record until a thread registers, then 64 at a
/// time: the first registration adds one chunk of records to the
/// footprint, the 64th nothing, the 65th one chunk more. Every sweep walks
/// exactly the records made, and an id handed out again reuses its record.
#[test]
fn records_are_made_a_chunk_at_a_time() {
    let rt = Runtime::new(Config::default()).unwrap();
    let core = rt.core();
    let chunk = CHUNK * core::mem::size_of::<ThreadSlot>();
    assert_eq!(core.records().count(), 0);
    assert_eq!(core.approx_bytes(), 0, "Runtime::new makes no record");
    let empty = rt.memory_footprint();
    let first = core.register_thread().unwrap();
    assert_eq!(rt.memory_footprint(), empty + chunk);
    for _ in 1..CHUNK {
        core.register_thread().unwrap();
    }
    assert_eq!(rt.memory_footprint(), empty + chunk, "chunk 0 is full");
    let next = core.register_thread().unwrap();
    assert_eq!(next, ThreadId(CHUNK as u64));
    assert_eq!(rt.memory_footprint(), empty + 2 * chunk);
    let ids: Vec<u64> = core.records().map(|(t, _)| t.0).collect();
    assert_eq!(ids, (0..2 * CHUNK as u64).collect::<Vec<_>>());
    core.unregister_thread(next);
    core.unregister_thread(first);
    assert_eq!(core.register_thread(), Some(first));
    assert_eq!(rt.memory_footprint(), empty + 2 * chunk);
}

/// Ids no thread was ever given — past the last chunk made, past the cap —
/// are never yielding: the probes answer so, breaking or waking them does
/// nothing, and none of it makes a record. (Two of these indexed without a
/// bounds check and panicked for an id ≥ 4096.)
#[test]
fn an_id_no_thread_was_given_is_not_yielding() {
    let rt = Runtime::new(Config::default()).unwrap();
    let core = rt.core();
    let t = core.register_thread().unwrap();
    for id in [CHUNK as u64, MAX_THREADS as u64, u64::MAX] {
        let never = ThreadId(id);
        assert!(!core.is_yielding(never), "{never:?}");
        assert!(!core.take_broken(never), "{never:?}");
        assert!(!core.break_yield(never), "{never:?}");
        assert!(core.yield_causes(never).is_empty(), "{never:?}");
        assert!(!core.thread_panicked(never), "{never:?}");
        rt.wake(never);
    }
    assert_eq!(core.records().count(), CHUNK);
    assert_eq!(rt.stats().yields_broken, 0);
    core.unregister_thread(t);
}

/// The chunk-install rule. Chunk 0's 64 threads each hold a lock through a
/// path a vaccination is about to make relevant, and the rebuild it needs
/// is in flight — published, not yet visited — when a 65th thread
/// registers. Installing chunk 1 waits out the visit, the newcomer's grant
/// lands under the new view, and at quiescence the table holds every
/// relevant held entry: the 64 the visit bucketed and the newcomer's own.
#[test]
fn a_chunk_installed_during_a_rebuild_waits_for_its_visit() {
    let rt = Runtime::new(Config::default()).unwrap();
    let core = rt.core();
    let (path, stack) = site(&rt, &[("worker", 0), ("take", 1)]);
    let ghost = site(&rt, &[("ghost", 0), ("never", 1)]).1;
    let grant = |t: ThreadId| {
        let l = rt.new_lock_id();
        assert!(matches!(core.request(t, l, &path, stack), Decision::Go));
        core.acquired(t, l, stack);
    };
    for _ in 0..CHUNK {
        grant(core.register_thread().unwrap());
    }
    assert_eq!(core.occupancy_skew().live_entries, 0, "not relevant yet");

    rt.history()
        .add(CycleKind::Deadlock, vec![stack, ghost], 2)
        .unwrap();
    let registered = AtomicBool::new(false);
    std::thread::scope(|s| {
        let rebuilding = core.rebuild_lock.lock();
        let view = Arc::new(core.fresh_view());
        core.view_cell.publish(Arc::clone(&view));
        let newcomer = s.spawn(|| {
            let t = core.register_thread().unwrap();
            registered.store(true, Ordering::Release);
            grant(t);
            t
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        let early = registered.load(Ordering::Acquire);
        core.visit_logs(&view, 0);
        drop(rebuilding);
        assert_eq!(newcomer.join().unwrap(), ThreadId(CHUNK as u64));
        assert!(!early, "chunk 1 was installed while a visit was pending");
    });
    assert_eq!(core.records().count(), 2 * CHUNK);
    assert_eq!(core.occupancy_skew().live_entries, CHUNK as u64 + 1);
}

/// Signatures appended while rebuilds run are applied once each. A view
/// stamped older than its contents would take the newer signatures again
/// from the next rebuild's tail, and the index would list their
/// candidates twice (the layout dedups keys; the candidate sets do not).
#[test]
fn an_add_racing_a_rebuild_never_duplicates_a_candidate() {
    const SIGS: u32 = 3000;
    let rt = Runtime::new(Config::default()).unwrap();
    let core = rt.core();
    let sites: Vec<_> = (0..SIGS)
        .map(|i| {
            (
                site(&rt, &[("left", i), ("take", 1)]),
                site(&rt, &[("right", i), ("take", 2)]),
            )
        })
        .collect();
    core.refresh_published();
    let done = AtomicBool::new(false);
    // Pure appends only, so every rebuild extends (the duplicates lived in
    // extended indexes; a fresh build wipes them).
    std::thread::scope(|s| {
        s.spawn(|| {
            for (a, b) in &sites {
                rt.history()
                    .add(CycleKind::Deadlock, vec![a.1, b.1], 2)
                    .unwrap();
            }
            done.store(true, Ordering::Release);
        });
        while !done.load(Ordering::Acquire) {
            core.refresh_published();
        }
    });
    core.refresh_published();
    let view = core.view_cell.load();
    assert_eq!(view.generation, rt.history().generation());
    for (i, (a, b)) in sites.iter().enumerate() {
        for (frames, _) in [a, b] {
            let n = view.index.candidates(frames).count();
            assert_eq!(n, 1, "signature {i} listed {n} times for one member");
        }
    }
    let stats = rt.stats();
    assert!(stats.rebuilds_delta > 0, "no rebuild extended: {stats:?}");
}

/// The one proof's canary. Real threads nest locks through sites that are
/// irrelevant at the start while a vaccinator appends signatures that turn
/// their suffixes into member keys, one key per step, then touches the
/// history (one fresh build), then appends again. After every step all
/// threads stop where they are, locks still held, and every bucket must
/// equal its recomputation from the per-thread logs: nothing missed by the
/// visit, nothing bucketed by both a hook and the visit. A single step
/// catches a broken visit only if an entry was held across its rebuild,
/// hence the many steps.
#[test]
fn buckets_equal_the_logs_after_every_live_rebuild() {
    const WORKERS: u32 = 3;
    const NEST: u32 = 4;
    let rt = Runtime::new(Config::default()).unwrap();
    let core = rt.core();
    // Worker `w` takes its `k`-th lock through `[worker w, step k, take]`:
    // one key for everything at depth 1, one per nesting level at depth 2,
    // one per path at depths 3 and 4. The second member of every signature
    // is a site nobody runs, so no cover exists and every request is
    // granted.
    let paths: Vec<Vec<_>> = (0..WORKERS)
        .map(|w| {
            (0..NEST)
                .map(|k| site(&rt, &[("worker", w), ("step", k), ("take", 0)]))
                .collect()
        })
        .collect();
    let locks: Vec<Vec<LockId>> = (0..WORKERS)
        .map(|_| (0..NEST).map(|_| rt.new_lock_id()).collect())
        .collect();
    let ghost = |rt: &Runtime, n: u32| site(rt, &[("ghost", n), ("never", n)]).1;
    rt.history()
        .add(
            CycleKind::Deadlock,
            vec![ghost(&rt, 100), ghost(&rt, 101)],
            2,
        )
        .unwrap();
    core.refresh_published();

    let pause = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let gate = std::sync::Barrier::new(WORKERS as usize + 1);
    // Returns the first difference instead of panicking: the workers are
    // parked on the gate and must be let go before the test may fail.
    let check = |what: &str| -> Result<(), String> {
        let view = core.view_cell.load();
        if view.generation != rt.history().generation() || !view.table.swept.load(Ordering::Acquire)
        {
            return Err(format!("{what}: the published view is not current"));
        }
        let epoch = core.view_cell.epoch();
        let mut expected = vec![Vec::new(); view.layout.len()];
        for (t, me) in core.records() {
            for held in &me.allowed.lock().entries {
                let Held { l, stack, .. } = *held;
                let slots: Vec<u32> = view.slots_of(&core.stacks.resolve(stack)).collect();
                // Granted under this view or restamped by its visit: either
                // way the entry remembers exactly its buckets.
                if held.stamp != epoch || held.slots.as_slice() != &slots[..] {
                    return Err(format!(
                        "{what}: {t:?}/{l:?} remembers {:?} @ {}, the view at {epoch} says {slots:?}",
                        held.slots.as_slice(),
                        held.stamp
                    ));
                }
                for s in slots {
                    expected[s as usize].push(AllowedEntry { t, l, stack }.encode());
                }
            }
        }
        let mut raw = Vec::new();
        for (s, mut want) in expected.into_iter().enumerate() {
            view.table.buckets[s].read_into(&mut raw);
            raw.sort_unstable();
            want.sort_unstable();
            if raw != want {
                return Err(format!(
                    "{what}: bucket {s} holds {raw:?}, logs say {want:?}"
                ));
            }
        }
        Ok(())
    };
    let mut verdict = Ok(());
    std::thread::scope(|s| {
        for w in 0..WORKERS as usize {
            let (paths, locks, pause, done, gate) = (&paths[w], &locks[w], &pause, &done, &gate);
            s.spawn(move || {
                let t = core.register_thread().unwrap();
                gate.wait();
                let stop_here = || {
                    if pause.load(Ordering::Acquire) {
                        gate.wait();
                        gate.wait();
                    }
                };
                while !done.load(Ordering::Acquire) {
                    for ((frames, stack), &l) in paths.iter().zip(locks) {
                        // Always GO (see `paths`); nothing is asserted on
                        // this thread, a panic here would strand the gate.
                        let _ = core.request(t, l, frames, *stack);
                        core.acquired(t, l, *stack);
                        stop_here();
                    }
                    for &l in locks.iter().rev() {
                        core.release(t, l);
                        stop_here();
                    }
                }
                core.unregister_thread(t);
            });
        }
        // One step: change the history under traffic, let a rebuild run
        // (here, unless a hook got to it first), stop the world, compare.
        let mut step = |what: &str, change: &dyn Fn()| {
            change();
            core.refresh_published();
            pause.store(true, Ordering::Release);
            gate.wait();
            if verdict.is_ok() {
                verdict = check(what);
            }
            pause.store(false, Ordering::Release);
            gate.wait();
        };
        let vaccinate = |w: u32, k: u32, depth: u8| {
            let member = paths[w as usize][k as usize].1;
            let other = ghost(&rt, u32::from(depth) * 100 + w * NEST + k);
            rt.history()
                .add(CycleKind::Deadlock, vec![member, other], depth)
                .unwrap();
        };
        gate.wait();
        for k in 0..NEST {
            step("depth-2 append", &|| vaccinate(0, k, 2));
        }
        for w in 0..WORKERS {
            for k in 0..NEST {
                step("depth-3 append", &|| vaccinate(w, k, 3));
            }
        }
        step("depth-1 append", &|| vaccinate(0, 0, 1));
        step("touch", &|| rt.history().touch());
        step("append after touch", &|| vaccinate(1, 1, 4));
        done.store(true, Ordering::Release);
    });
    verdict.unwrap();
    let stats = rt.stats();
    assert!(stats.rebuilds_delta >= u64::from(NEST), "{stats:?}");
    assert!(
        stats.rebuilds_full >= 2,
        "first build and the touch: {stats:?}"
    );
    assert_eq!(core.occupancy_skew().live_entries, 0, "all released");
}

/// Every bucket of the published table is empty.
fn assert_table_drained(core: &AvoidanceCore) {
    let view = core.view_cell.load();
    for (s, bucket) in view.table.buckets.iter().enumerate() {
        assert!(bucket.is_empty(), "bucket {s}");
    }
}

/// One thread holds nested locks through a bucketed suffix while the
/// history changes under them twice: an append that gives the suffix a key
/// at a second depth (the view is extended: each entry gains a bucket past
/// the old layout) and a removal (a fresh table: the surviving key is
/// renumbered from slot 2 to slot 0, the other one is gone). Around each
/// rebuild one lock is released — between the publish and the slot's visit
/// when `before_visit` (the entry's stamp is stale: the slots are resolved
/// again), after the visit otherwise (restamped: the remembered slots are
/// used) — and at the end everything else. Whatever path a removal took,
/// no bucket keeps anything.
fn remembered_slots_survive_rebuilds(before_visit: bool) {
    let rt = Runtime::new(Config::default()).unwrap();
    let core = rt.core();
    let member = |rt: &Runtime, n: u32| site(rt, &[("m", n), ("mid", 7), ("inner", 8)]).1;
    let ghost = |rt: &Runtime, n: u32| site(rt, &[("ghost", n), ("never", n), ("run", n)]).1;
    let deep = rt
        .history()
        .add(CycleKind::Deadlock, vec![member(&rt, 0), ghost(&rt, 0)], 2)
        .unwrap();
    core.refresh_published();

    let t = core.register_thread().unwrap();
    let locks: Vec<LockId> = (0..4).map(|_| rt.new_lock_id()).collect();
    let paths: Vec<_> = (0..4)
        .map(|i| site(&rt, &[("outer", i), ("mid", 7), ("inner", 8)]))
        .collect();
    let grant = |i: usize| {
        let (frames, stack) = &paths[i];
        assert!(matches!(
            core.request(t, locks[i], frames, *stack),
            Decision::Go
        ));
        core.acquired(t, locks[i], *stack);
    };
    // View N: two nesting levels of lock 1 inside lock 0, two more locks on
    // top, and lock 0 — the outermost — unlocked first.
    grant(0);
    grant(1);
    core.acquired_reentrant(t, locks[1], &paths[1].0, paths[1].1);
    grant(2);
    grant(3);
    assert_eq!(core.occupancy_skew().live_entries, 5);
    assert!(core.release(t, locks[0]).is_empty());
    assert_eq!(bucket_of(core, 2, &paths[1].0).len(), 4);

    // What the log's entry for `l` remembers, and whether that is current.
    let remembered = |l: LockId| -> (Vec<u32>, bool) {
        let log = core.me(t).allowed.lock();
        let held = log.entries.iter().rfind(|held| held.l == l).unwrap();
        let current = held.stamp == core.view_cell.epoch();
        (held.slots.as_slice().to_vec(), current)
    };
    // One rebuild, by hand: publish `view`, release `l` on one side of the
    // visit or the other.
    let rebuild_around = |view: MatchView, first_new: u32, l: LockId| {
        let _g = core.rebuild_lock.lock();
        let view = Arc::new(view);
        core.view_cell.publish(Arc::clone(&view));
        if before_visit {
            assert!(!remembered(l).1, "published past the entry's stamp");
            assert!(core.release(t, l).is_empty());
        }
        core.visit_logs(&view, first_new);
        for held in &core.me(t).allowed.lock().entries {
            let slots: Vec<u32> = view.slots_of(&core.stacks.resolve(held.stack)).collect();
            assert_eq!(held.slots.as_slice(), &slots[..], "restamped by the visit");
            assert_eq!(held.stamp, core.view_cell.epoch());
        }
        if !before_visit {
            assert!(core.release(t, l).is_empty());
        }
    };

    // (a) Extension: `inner` alone becomes a key, at depth 1.
    assert_eq!(remembered(locks[3]), (vec![0], true));
    rt.history()
        .add(
            CycleKind::Deadlock,
            vec![site(&rt, &[("n", 0), ("inner", 8)]).1, ghost(&rt, 1)],
            1,
        )
        .unwrap();
    let old = core.view_cell.load();
    let extended = core.extended_view(&old).expect("a pure append");
    assert!(Arc::ptr_eq(
        &extended.table.buckets[0],
        &old.table.buckets[0]
    ));
    rebuild_around(extended, old.layout.len() as u32, locks[3]);
    // Depth ascending: the new depth-1 slot, then the surviving depth-2 one.
    assert_eq!(remembered(locks[2]), (vec![2, 0], true));
    assert_eq!(bucket_of(core, 1, &paths[1].0).len(), 3);
    assert_eq!(bucket_of(core, 2, &paths[1].0).len(), 3);
    // A grant under the extended view lands in both buckets, and leaves
    // them by what it remembers.
    grant(3);
    assert_eq!(remembered(locks[3]), (vec![2, 0], true));
    assert_eq!(bucket_of(core, 1, &paths[1].0).len(), 4);
    assert!(core.release(t, locks[3]).is_empty());
    assert_eq!(bucket_of(core, 1, &paths[1].0).len(), 3);
    assert_eq!(bucket_of(core, 2, &paths[1].0).len(), 3);

    // (b) Structural: the depth-2 signature goes; a fresh table numbers
    // what is left from 0.
    assert!(rt.history().remove(deep.id));
    assert!(core.extended_view(&core.view_cell.load()).is_none());
    rebuild_around(core.fresh_view(), 0, locks[2]);
    assert_eq!(remembered(locks[1]), (vec![0], true));
    assert_eq!(bucket_of(core, 1, &paths[1].0).len(), 2);

    // The two nesting levels of lock 1, innermost first.
    assert!(core.release(t, locks[1]).is_empty());
    assert_eq!(bucket_of(core, 1, &paths[1].0).len(), 1);
    assert!(core.release(t, locks[1]).is_empty());
    assert!(core.me(t).allowed.lock().entries.is_empty());
    assert_table_drained(core);
    core.unregister_thread(t);
}

#[test]
fn a_release_between_publish_and_visit_resolves_its_slots_again() {
    remembered_slots_survive_rebuilds(true);
}

#[test]
fn a_release_after_the_visit_uses_the_restamped_slots() {
    remembered_slots_survive_rebuilds(false);
}

/// A stack that hits more depth layers than an entry can remember is
/// stamped "ask the view": granted into every bucket, and released out of
/// every bucket by resolving again — the stale-stamp path, not a third one.
#[test]
fn more_depth_layers_than_an_entry_remembers_take_the_stale_stamp_path() {
    let rt = Runtime::new(Config::default()).unwrap();
    let core = rt.core();
    let frames: Vec<(&str, u32)> = (0..=REMEMBERED_SLOTS as u32).map(|i| ("f", i)).collect();
    let (path, stack) = site(&rt, &frames);
    let layers = REMEMBERED_SLOTS as u8 + 1;
    for depth in 1..=layers {
        let ghost = site(&rt, &[("ghost", u32::from(depth))]).1;
        rt.history()
            .add(CycleKind::Deadlock, vec![stack, ghost], depth)
            .unwrap();
    }
    let t = core.register_thread().unwrap();
    let l = rt.new_lock_id();
    assert!(matches!(core.request(t, l, &path, stack), Decision::Go));
    core.acquired(t, l, stack);
    assert_eq!(
        core.me(t).allowed.lock().entries[0].stamp,
        Held::ASK_THE_VIEW
    );
    for depth in 1..=layers {
        assert_eq!(bucket_of(core, depth, &path).len(), 1, "depth {depth}");
    }
    // The visit of a rebuild finds as many and leaves the same stamp.
    rt.history().touch();
    core.refresh_published();
    assert_eq!(core.occupancy_skew().live_entries, u64::from(layers));
    assert_eq!(
        core.me(t).allowed.lock().entries[0].stamp,
        Held::ASK_THE_VIEW
    );
    assert!(core.release(t, l).is_empty());
    assert_table_drained(core);
    core.unregister_thread(t);
}

/// A thread and a lock it holds.
type Hold = (ThreadId, LockId);

/// The bounded-retry fallback, reached directly: over the same bucket
/// contents `find_instance_locked` decides what the optimistic
/// `find_instance` decides — the same signature, causes and bindings, or no
/// instance — and counts itself. On a hit it has the yield registered by
/// the time it returns (it registers before its bucket claims drop, so a
/// cause's release, which must claim the bucket to remove its entry, cannot
/// slip in between): every cause's release hands back the yielder although
/// `request` never ran. The signature has `held` members whose depth-2 keys
/// are identical, all ending the path `holders` threads each hold a lock
/// through, and one the yielder requests on. Returns the holders' threads and
/// locks, and the decision's causes as such pairs.
fn the_fallback_agrees(held: u32, holders: usize) -> (Vec<Hold>, Vec<Hold>) {
    let rt = Runtime::new(Config::default()).unwrap();
    let core = rt.core();
    let held_site = |i: u32| site(&rt, &[("holder", i), ("mid", 5), ("take", 10)]);
    let (held_path, held_stack) = held_site(0);
    let (yield_path, yield_stack) = site(&rt, &[("waiter", 0), ("take", 20)]);
    let mut members: Vec<StackId> = (0..held).map(|i| held_site(i).1).collect();
    members.push(yield_stack);
    let sig = rt.history().add(CycleKind::Deadlock, members, 2).unwrap();
    let holders: Vec<Hold> = (0..holders)
        .map(|_| {
            let (t, l) = (core.register_thread().unwrap(), rt.new_lock_id());
            assert!(matches!(
                core.request(t, l, &held_path, held_stack),
                Decision::Go
            ));
            core.acquired(t, l, held_stack);
            (t, l)
        })
        .collect();
    let yielder = core.register_thread().unwrap();
    let wanted = rt.new_lock_id();

    let me = core.me(yielder);
    let mut resolved = Resolved::default();
    let log = core.lock_current(me, &yield_path, &mut resolved);
    let view = Arc::clone(log.view.as_ref().unwrap());
    drop(log);
    let slots = resolved.as_slice();
    assert_eq!(slots.len(), 1, "the yielder's path is a member suffix");
    let optimistic = core
        .find_instance(&view, slots, yielder, wanted, yield_stack)
        .map(|(inst, _proof)| inst);
    assert_eq!(rt.stats().cover_fallbacks, 0);
    for &(t, _) in &holders {
        assert!(core.me(t).wake_list.is_empty(), "nothing registered yet");
    }

    let locked = core.find_instance_locked(&view, slots, me, yielder, wanted, yield_stack);
    assert_eq!(rt.stats().cover_fallbacks, 1);
    let decision = |inst: &Option<Instance>| {
        inst.as_ref()
            .map(|i| (i.sig.id, i.depth_used, i.causes.clone(), i.bindings.clone()))
    };
    assert_eq!(decision(&locked), decision(&optimistic));
    let causes: Vec<Hold> = locked.map_or_else(Vec::new, |inst| {
        assert_eq!(inst.sig.id, sig.id);
        inst.causes.iter().map(|c| (c.thread, c.lock)).collect()
    });
    let woken = if causes.is_empty() {
        vec![]
    } else {
        vec![yielder]
    };
    for &(t, l) in &holders {
        assert_eq!(core.release(t, l), woken, "{t:?}");
        core.unregister_thread(t);
    }
    core.unregister_thread(yielder);
    (holders, causes)
}

/// A hit: one holder covers the one other member.
#[test]
fn the_cover_fallback_decides_like_the_optimistic_search_and_registers_the_yield() {
    let (holders, causes) = the_fallback_agrees(1, 1);
    assert_eq!(causes, holders);
}

/// A miss: two members with one key want two distinct holders, and the
/// bucket holds one. Neither search finds an instance; the fallback still
/// counts itself and registers nothing.
#[test]
fn the_cover_fallback_misses_where_the_optimistic_search_misses() {
    assert!(the_fallback_agrees(2, 1).1.is_empty());
}

/// Two members with identical keys share one bucket snapshot, and two
/// holders in it cover both.
#[test]
fn the_cover_fallback_covers_members_with_identical_keys_alike() {
    let (holders, causes) = the_fallback_agrees(2, 2);
    assert_eq!(causes, holders);
}
