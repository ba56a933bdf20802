//! White-box tests of the per-thread held-lock stack ([`AllowedLog`]): its
//! pops against the per-lock `HashMap<LockId, Vec<_>>` it replaced (kept
//! here as the oracle), the exit sweep, and the rebuild's visit: its bucket
//! order, that appends racing it are applied once, that buckets equal the
//! logs after every live rebuild, and the view it hands each log; the slots
//! a held entry remembers across both kinds of rebuild; and a yield's
//! registration in its cause's log, and its withdrawal.

use super::cover::REMEMBERED_SLOTS;
use super::record::{Parker, SlotLock};
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
    let view = core.published();
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
    let log = core.me(t).lock();
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
    assert!(core.me(holder).lock().entries.is_empty());
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
/// a state of the grant word, so it costs no byte of its own; the log's view
/// is one `Arc`, with no epoch beside it (136 before that). 152 with the
/// yield state and the parker behind mutexes of their own; 136 with both
/// under the slot mutex; 128 once a yielder withdrew its own registrations
/// and the registration epoch went. The slot lock that replaced the mutex
/// is as large, and the parker's mutex fits beside a 32-bit epoch.
#[cfg(target_pointer_width = "64")]
#[test]
fn thread_slot_is_no_larger_than_at_the_parent_commit() {
    let size = core::mem::size_of::<ThreadSlot>();
    assert!(size <= 128, "ThreadSlot is {size} bytes");
}

/// A lone pair touches the grant word with its lock and stack, `yielding`
/// and the slot lock with its log: all in a record's first 112 bytes,
/// ahead of what only a yield uses. Every record of a chunk starts at a
/// 128-byte-aligned address, so those bytes are the same two 64-byte lines
/// in every run, and no line holds two records.
#[cfg(target_pointer_width = "64")]
#[test]
fn a_lone_pairs_record_fields_sit_in_two_aligned_cache_lines() {
    use core::mem::{offset_of, size_of};
    let allowed = offset_of!(ThreadSlot, allowed);
    let hot_end = allowed + size_of::<SlotLock<AllowedLog>>();
    assert!(hot_end <= 112, "the hot fields end at byte {hot_end}");
    for hot in [
        offset_of!(ThreadSlot, grant_lock),
        offset_of!(ThreadSlot, grant_stack),
        offset_of!(ThreadSlot, grant),
        offset_of!(ThreadSlot, yielding),
    ] {
        assert!(hot < allowed);
    }
    assert!(offset_of!(ThreadSlot, parker) >= hot_end);

    let rt = Runtime::new(Config::default()).unwrap();
    for _ in 0..=CHUNK {
        rt.core().register_thread().unwrap();
    }
    for id in [0, 1, CHUNK as u64 - 1, CHUNK as u64] {
        let addr = std::ptr::from_ref(rt.core().me(ThreadId(id))) as usize;
        assert_eq!(addr % 128, 0, "record {id} at {addr:#x}");
    }
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
/// is in flight — built, not yet visited — when a 65th thread registers. Installing chunk 1 waits out the visit, the newcomer's grant
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
        let mut rebuilding = core.view.lock();
        let view = Arc::new(core.fresh_view());
        let newcomer = s.spawn(|| {
            let t = core.register_thread().unwrap();
            registered.store(true, Ordering::Release);
            grant(t);
            t
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        let early = registered.load(Ordering::Acquire);
        core.visit_logs(&view, 0);
        *rebuilding = view;
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
    let view = core.published();
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
/// threads stop where they are, locks still held, and every log must hold
/// the published view and every bucket must equal its recomputation from
/// the per-thread logs: nothing missed by the visit, nothing bucketed by
/// both a hook and the visit. A single step
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
        let view = core.published();
        if view.generation != rt.history().generation() || !view.table.swept.load(Ordering::Acquire)
        {
            return Err(format!("{what}: the published view is not current"));
        }
        let mut expected = vec![Vec::new(); view.layout.len()];
        for (t, me) in core.records() {
            let log = me.lock();
            if !Arc::ptr_eq(&log.view, &view) {
                return Err(format!("{what}: {t:?} holds another view"));
            }
            for held in &log.entries {
                let Held { l, stack, .. } = *held;
                let slots: Vec<u32> = view.layout.slots_of(&core.stacks.resolve(stack)).collect();
                // Granted under this view or re-resolved by its visit:
                // either way the entry remembers exactly its buckets.
                if held.slots.as_slice() != &slots[..] {
                    return Err(format!(
                        "{what}: {t:?}/{l:?} remembers {:?}, the view says {slots:?}",
                        held.slots.as_slice(),
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

/// Every bucket of `view`'s table is empty.
fn assert_drained(view: &MatchView) {
    for (s, bucket) in view.table.buckets.iter().enumerate() {
        assert!(bucket.is_empty(), "bucket {s}");
    }
}

/// One thread holds nested locks through a bucketed suffix while the
/// history changes under them twice, each rebuild built and visited by hand
/// under the rebuild mutex: an append that gives the suffix a key at a
/// second depth (the view is extended: each entry gains a bucket past the
/// old layout) and a removal (a fresh table: the surviving key is
/// renumbered from slot 2 to slot 0, the other one is gone). Around each
/// rebuild one lock is released: before the visit when `before_visit` (its
/// log still holds the old view, and the entry leaves by that view's
/// slots: a bucket the extension shares loses it in both tables, and no
/// bucket the visit fills ever gets it), after the visit otherwise (the
/// visit handed the log the new view and left the entry remembering its
/// slots under it). Then everything else is released, and the published
/// table keeps nothing.
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

    // What the log's entry for `l` remembers.
    let remembered = |l: LockId| -> Vec<u32> {
        let log = core.me(t).lock();
        let held = log.entries.iter().rfind(|held| held.l == l).unwrap();
        held.slots.as_slice().to_vec()
    };
    // One rebuild, by hand: visit with `view` and publish it, releasing `l`
    // on one side of the visit or the other.
    let rebuild_around = |view: MatchView, first_new: u32, l: LockId| {
        let mut published = core.view.lock();
        if before_visit {
            let log = core.me(t).lock();
            assert!(Arc::ptr_eq(&log.view, &published), "not visited yet");
            drop(log);
            assert!(core.release(t, l).is_empty());
        }
        let view = Arc::new(view);
        core.visit_logs(&view, first_new);
        *published = Arc::clone(&view);
        let log = core.me(t).lock();
        assert!(Arc::ptr_eq(&log.view, &view), "handed over by the visit");
        for held in &log.entries {
            let slots: Vec<u32> = view
                .layout
                .slots_of(&core.stacks.resolve(held.stack))
                .collect();
            assert_eq!(held.slots.as_slice(), &slots[..], "visited");
        }
        drop(log);
        if !before_visit {
            assert!(core.release(t, l).is_empty());
        }
    };

    // (a) Extension: `inner` alone becomes a key, at depth 1.
    assert_eq!(remembered(locks[3]), vec![0]);
    rt.history()
        .add(
            CycleKind::Deadlock,
            vec![site(&rt, &[("n", 0), ("inner", 8)]).1, ghost(&rt, 1)],
            1,
        )
        .unwrap();
    let first = core.published();
    let extended = core.extended_view(&first).expect("a pure append");
    assert!(Arc::ptr_eq(
        &extended.table.buckets[0],
        &first.table.buckets[0]
    ));
    rebuild_around(extended, first.layout.len() as u32, locks[3]);
    // Depth ascending: the new depth-1 slot, then the surviving depth-2 one.
    assert_eq!(remembered(locks[2]), vec![2, 0]);
    assert_eq!(bucket_of(core, 1, &paths[1].0).len(), 3);
    assert_eq!(bucket_of(core, 2, &paths[1].0).len(), 3);
    // A grant under the extended view lands in both buckets, and leaves
    // them by what it remembers.
    grant(3);
    assert_eq!(remembered(locks[3]), vec![2, 0]);
    assert_eq!(bucket_of(core, 1, &paths[1].0).len(), 4);
    assert!(core.release(t, locks[3]).is_empty());
    assert_eq!(bucket_of(core, 1, &paths[1].0).len(), 3);
    assert_eq!(bucket_of(core, 2, &paths[1].0).len(), 3);

    // (b) Structural: the depth-2 signature goes; a fresh table numbers
    // what is left from 0.
    assert!(rt.history().remove(deep.id));
    assert!(core.extended_view(&core.published()).is_none());
    rebuild_around(core.fresh_view(), 0, locks[2]);
    assert_eq!(remembered(locks[1]), vec![0]);
    assert_eq!(bucket_of(core, 1, &paths[1].0).len(), 2);

    // The two nesting levels of lock 1, innermost first.
    assert!(core.release(t, locks[1]).is_empty());
    assert_eq!(bucket_of(core, 1, &paths[1].0).len(), 1);
    assert!(core.release(t, locks[1]).is_empty());
    assert!(core.me(t).lock().entries.is_empty());
    assert_drained(&core.published());
    core.unregister_thread(t);
}

/// A release racing a rebuild, before the visit reaches its log: the entry
/// leaves the buckets by the old view's slots.
#[test]
fn a_release_between_publish_and_visit_resolves_its_slots_again() {
    remembered_slots_survive_rebuilds(true);
}

/// A release after the visit: the entry leaves the buckets by the slots the
/// visit left it remembering under the new view.
#[test]
fn a_release_after_the_visit_uses_the_restamped_slots() {
    remembered_slots_survive_rebuilds(false);
}

/// A stack that hits more depth layers than an entry can remember keeps
/// the first few: granted into every bucket, and released out of every
/// bucket by resolving the stack again — before and after a rebuild's visit.
#[test]
fn an_incomplete_resolution_is_resolved_again_at_release() {
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
    let incomplete = || {
        let log = core.me(t).lock();
        let slots = log.entries[0].slots;
        usize::from(slots.len) == usize::from(layers) && !slots.is_complete()
    };
    assert!(matches!(core.request(t, l, &path, stack), Decision::Go));
    core.acquired(t, l, stack);
    assert!(incomplete());
    for depth in 1..=layers {
        assert_eq!(bucket_of(core, depth, &path).len(), 1, "depth {depth}");
    }
    // The visit of a rebuild finds as many and leaves them as incomplete.
    rt.history().touch();
    core.refresh_published();
    assert_eq!(core.occupancy_skew().live_entries, u64::from(layers));
    assert!(incomplete());
    assert!(core.release(t, l).is_empty());
    assert_drained(&core.published());
    core.unregister_thread(t);
}

/// A registered thread that runs no hook pins no retired view: its chunk
/// install handed it the published one, and each visit hands it the next,
/// so after a rebuild the only other reference to the old view is the
/// test's own.
#[test]
fn an_idle_thread_pins_no_retired_view() {
    let rt = Runtime::new(Config::default()).unwrap();
    let core = rt.core();
    let stack = |n: u32| site(&rt, &[("idle", n), ("take", 1)]).1;
    let vaccinate = |n: u32| {
        rt.history()
            .add(CycleKind::Deadlock, vec![stack(n), stack(n + 1)], 2)
            .unwrap();
        core.refresh_published();
    };
    vaccinate(0);
    let t = core.register_thread().unwrap();
    let old = core.published();
    assert!(Arc::ptr_eq(&core.me(t).lock().view, &old));
    vaccinate(2);
    let new = core.published();
    assert!(!Arc::ptr_eq(&new, &old), "rebuilt");
    assert!(Arc::ptr_eq(&core.me(t).lock().view, &new));
    assert_eq!(Arc::strong_count(&old), 1, "only the test's own");
    core.unregister_thread(t);
}

/// A holder granted a lock through one member of a two-member signature,
/// and a yielder whose request through the other member that grant covers.
struct Handoff {
    rt: Runtime,
    holder: ThreadId,
    held: LockId,
    held_stack: StackId,
    yielder: ThreadId,
    wanted: LockId,
    path: (Vec<FrameId>, StackId),
}

impl Handoff {
    fn new() -> Self {
        let rt = Runtime::new(Config::default()).unwrap();
        let (held_path, held_stack) = site(&rt, &[("holder", 0), ("take", 10)]);
        let path = site(&rt, &[("waiter", 0), ("take", 20)]);
        rt.history()
            .add(CycleKind::Deadlock, vec![held_stack, path.1], 4)
            .unwrap();
        let core = rt.core();
        let (holder, held) = (core.register_thread().unwrap(), rt.new_lock_id());
        assert!(matches!(
            core.request(holder, held, &held_path, held_stack),
            Decision::Go
        ));
        let (yielder, wanted) = (core.register_thread().unwrap(), rt.new_lock_id());
        Self {
            rt,
            holder,
            held,
            held_stack,
            yielder,
            wanted,
            path,
        }
    }

    /// The yielder's request.
    fn request(&self) -> Decision {
        let (frames, stack) = &self.path;
        self.rt
            .core()
            .request(self.yielder, self.wanted, frames, *stack)
    }

    /// How many waiters the holder's log keeps.
    fn waiters(&self) -> usize {
        waiters(self.rt.core(), self.holder)
    }
}

/// How many waiters `cause`'s log keeps.
fn waiters(core: &AvoidanceCore, cause: ThreadId) -> usize {
    core.me(cause).lock().waiters.len()
}

/// A cover found while its cause held the lock, registered after the cause
/// released it: the cause's log no longer holds the entry, so the
/// registration is refused and leaves no waiter behind, and the request
/// decides again to a GO.
#[test]
fn a_registration_against_a_released_cause_is_refused() {
    let h = Handoff::new();
    let core = h.rt.core();
    core.acquired(h.holder, h.held, h.held_stack);
    let me = core.me(h.yielder);
    let mut resolved = Resolved::default();
    let log = core.lock_current(me, &h.path.0, &mut resolved);
    let inst = core
        .find_instance(
            &log.view,
            resolved.as_slice(),
            h.yielder,
            h.wanted,
            h.path.1,
        )
        .expect("the holder's entry covers the other member");
    drop(log);
    assert_eq!(inst.causes[0].thread, h.holder);
    assert!(core.release(h.holder, h.held).is_empty());
    assert!(!core.register_yield(h.yielder, &inst.causes));
    assert_eq!(h.waiters(), 0);
    assert!(matches!(h.request(), Decision::Go));
}

/// A yielder that yields on one held cause ten times, cancelling in
/// between, leaves one waiter in the cause's log, not ten: each cancel
/// withdraws the registration its yield made. The cause's release wakes it
/// once.
#[test]
fn repeated_yields_on_one_cause_keep_one_live_waiter() {
    let h = Handoff::new();
    let core = h.rt.core();
    core.acquired(h.holder, h.held, h.held_stack);
    for round in 0..10 {
        if round > 0 {
            assert!(core.cancel(h.yielder, h.wanted).is_empty());
        }
        assert!(matches!(h.request(), Decision::Yield { .. }), "{round}");
        assert_eq!(h.waiters(), 1, "round {round}");
    }
    assert_eq!(core.release(h.holder, h.held), vec![h.yielder]);
    assert_eq!(h.waiters(), 0);
}

/// A yielded request that is cancelled (a `try_lock` that yielded) takes
/// its registration back at once: the cause's log holds no waiter, and the
/// cause's release wakes nobody.
#[test]
fn a_cancelled_yield_leaves_no_waiter() {
    let h = Handoff::new();
    let core = h.rt.core();
    core.acquired(h.holder, h.held, h.held_stack);
    assert!(matches!(h.request(), Decision::Yield { .. }));
    assert_eq!(h.waiters(), 1);
    assert!(core.cancel(h.yielder, h.wanted).is_empty());
    assert_eq!(h.waiters(), 0, "withdrawn by the cancel");
    assert!(core.release(h.holder, h.held).is_empty());
}

/// Two yielders on one cause, and one of them cancels: the withdrawal is
/// keyed by yielder, so the other's registration stays in the cause's log,
/// and the cause's release wakes exactly that one.
#[test]
fn one_of_two_yielders_on_a_cause_cancels() {
    let h = Handoff::new();
    let core = h.rt.core();
    core.acquired(h.holder, h.held, h.held_stack);
    let (other, other_wants) = (core.register_thread().unwrap(), h.rt.new_lock_id());
    assert!(matches!(h.request(), Decision::Yield { .. }));
    let (frames, stack) = &h.path;
    assert!(matches!(
        core.request(other, other_wants, frames, *stack),
        Decision::Yield { .. }
    ));
    assert_eq!(h.waiters(), 2);
    assert!(core.cancel(h.yielder, h.wanted).is_empty());
    assert_eq!(h.waiters(), 1, "the other yielder stays registered");
    assert_eq!(core.release(h.holder, h.held), vec![other]);
}

/// However a yield ends without a retry — it times out (`force_go`), the
/// monitor breaks it (`take_broken`, then `force_go`) or its thread exits —
/// its registration leaves the cause's log with it, and the cause's
/// release wakes nobody.
#[test]
fn an_ended_yield_leaves_no_waiter() {
    for ending in ["timed out", "broken", "exit"] {
        let h = Handoff::new();
        let core = h.rt.core();
        core.acquired(h.holder, h.held, h.held_stack);
        assert!(matches!(h.request(), Decision::Yield { .. }), "{ending}");
        assert_eq!(h.waiters(), 1, "{ending}");
        let (frames, stack) = &h.path;
        match ending {
            "timed out" => core.force_go(h.yielder, h.wanted, frames, *stack),
            "broken" => {
                assert!(core.break_yield(h.yielder));
                assert!(core.take_broken(h.yielder));
                assert_eq!(h.waiters(), 0, "withdrawn by take_broken");
                core.force_go(h.yielder, h.wanted, frames, *stack);
            }
            _ => core.unregister_thread(h.yielder),
        }
        assert_eq!(h.waiters(), 0, "{ending}");
        assert!(!core.is_yielding(h.yielder), "{ending}");
        assert!(core.release(h.holder, h.held).is_empty(), "{ending}");
    }
}

/// A three-member signature covered by two causes, the second of which
/// releases its lock between the cover search and the registration: that
/// registration is refused, and the one the first cause's log already took
/// is withdrawn with it.
#[test]
fn a_refused_registration_withdraws_the_ones_before_it() {
    let rt = Runtime::new(Config::default()).unwrap();
    let core = rt.core();
    let (a_path, a_stack) = site(&rt, &[("first", 0), ("take", 10)]);
    let (b_path, b_stack) = site(&rt, &[("second", 0), ("take", 20)]);
    let (y_path, y_stack) = site(&rt, &[("waiter", 0), ("take", 30)]);
    rt.history()
        .add(CycleKind::Deadlock, vec![a_stack, b_stack, y_stack], 4)
        .unwrap();
    let hold = |path: &[FrameId], stack| {
        let (t, l) = (core.register_thread().unwrap(), rt.new_lock_id());
        assert!(matches!(core.request(t, l, path, stack), Decision::Go));
        core.acquired(t, l, stack);
        (t, l)
    };
    let (a, _) = hold(&a_path, a_stack);
    let (b, lb) = hold(&b_path, b_stack);
    let (y, wanted) = (core.register_thread().unwrap(), rt.new_lock_id());
    let me = core.me(y);
    let mut resolved = Resolved::default();
    let log = core.lock_current(me, &y_path, &mut resolved);
    let inst = core
        .find_instance(&log.view, resolved.as_slice(), y, wanted, y_stack)
        .expect("the two holders cover the other members");
    drop(log);
    let causes: Vec<ThreadId> = inst.causes.iter().map(|c| c.thread).collect();
    assert_eq!(causes, [a, b]);
    assert!(core.release(b, lb).is_empty());
    assert!(!core.register_yield(y, &inst.causes));
    assert_eq!(
        waiters(core, a),
        0,
        "the first cause's registration is withdrawn"
    );
    assert!(matches!(
        core.request(y, wanted, &y_path, y_stack),
        Decision::Go
    ));
}

/// A retried request that yields again on a different cause withdraws the
/// first yield's registration: the first cause's release wakes nobody, the
/// second cause's wakes the yielder.
#[test]
fn a_reyield_on_another_cause_leaves_the_first_cause_no_waiter() {
    let rt = Runtime::new(Config::default()).unwrap();
    let core = rt.core();
    let (held_path, held_stack) = site(&rt, &[("holder", 0), ("take", 10)]);
    let (path, stack) = site(&rt, &[("waiter", 0), ("take", 20)]);
    rt.history()
        .add(CycleKind::Deadlock, vec![held_stack, stack], 4)
        .unwrap();
    // The covers sort their entries by thread id, so the second cause is
    // registered first and is preferred once it holds.
    let (second, first, y) = (
        core.register_thread().unwrap(),
        core.register_thread().unwrap(),
        core.register_thread().unwrap(),
    );
    let hold = |t, l| {
        assert!(matches!(
            core.request(t, l, &held_path, held_stack),
            Decision::Go
        ));
        core.acquired(t, l, held_stack);
    };
    let (l1, l2, wanted) = (rt.new_lock_id(), rt.new_lock_id(), rt.new_lock_id());
    hold(first, l1);
    assert!(matches!(
        core.request(y, wanted, &path, stack),
        Decision::Yield { .. }
    ));
    assert_eq!(core.yield_causes(y)[0].thread, first);
    hold(second, l2);
    assert!(matches!(
        core.request(y, wanted, &path, stack),
        Decision::Yield { .. }
    ));
    assert_eq!(core.yield_causes(y)[0].thread, second);
    assert_eq!(waiters(core, first), 0);
    assert!(core.release(first, l1).is_empty());
    assert_eq!(core.release(second, l2), vec![y]);
}

/// A cause that gives up its grant with `cancel` (a timed lock that timed
/// out) wakes its yielder as a release would.
#[test]
fn a_cancel_of_the_causes_lock_returns_its_yielder() {
    let h = Handoff::new();
    let core = h.rt.core();
    assert!(matches!(h.request(), Decision::Yield { .. }));
    assert_eq!(core.cancel(h.holder, h.held), vec![h.yielder]);
    assert_eq!(h.waiters(), 0);
    assert!(matches!(h.request(), Decision::Go));
}

/// A wake is not lost while the yielder's slot lock is busy: every
/// rebuild's visit of the yielder's record takes that lock, whose waiters
/// sleep on the parker the yielder parks on, and the wake takes the
/// parker's mutex. Y parks in a yield on H's hold of `l0`; a second thread then
/// touches the history over and over, each rebuild visiting Y's record,
/// and H releases `l0` among those visits. Y must come back `Woken` and
/// retry to a GO, not wait out its yield bound.
#[test]
fn a_wake_is_not_lost_while_the_yielders_slot_mutex_is_busy() {
    let rt = Runtime::new(Config {
        max_yield_duration: Some(std::time::Duration::from_secs(5)),
        ..Config::default()
    })
    .unwrap();
    let site_a = rt.make_site(&[("m", "busy.rs", 1), ("u", "busy.rs", 3)]);
    let site_b = rt.make_site(&[("m", "busy.rs", 2), ("u", "busy.rs", 3)]);
    rt.history()
        .add(CycleKind::Deadlock, vec![site_a.stack(), site_b.stack()], 4)
        .unwrap();
    let (l0, l1) = (rt.raw_lock(), rt.raw_lock());
    l0.lock(&site_a);
    let rebuilds = || {
        let stats = rt.stats();
        stats.rebuilds_full + stats.rebuilds_delta
    };
    let stop = AtomicBool::new(false);
    let (rt, l1, site_b) = (&rt, &l1, &site_b);
    let waited = std::thread::scope(|s| {
        let (tx, rx) = std::sync::mpsc::channel();
        let y = s.spawn(move || {
            tx.send(rt.current_thread().unwrap()).unwrap();
            let start = Instant::now();
            l1.lock(site_b);
            l1.unlock();
            start.elapsed()
        });
        let y_id = rx.recv().unwrap();
        while !rt.core().is_yielding(y_id) && !y.is_finished() {
            std::thread::yield_now();
        }
        let toucher = s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                rt.history().touch();
                rt.core().refresh_published();
            }
        });
        let before = rebuilds();
        while rebuilds() < before + 20 {
            std::thread::yield_now();
        }
        // The wake is delivered before `unlock` returns; only then may the
        // toucher stop, so that Y's retry finds a view that stays current.
        l0.unlock();
        stop.store(true, Ordering::Relaxed);
        toucher.join().unwrap();
        y.join().unwrap()
    });
    let stats = rt.stats();
    assert!(stats.yields >= 1, "Y never yielded on H: {stats:?}");
    assert_eq!(stats.yield_aborts, 0, "Y's wake was lost: {stats:?}");
    assert!(
        waited < std::time::Duration::from_secs(5),
        "Y waited {waited:?}: {stats:?}"
    );
}

/// The id pool hands out [`MAX_THREADS`] ids and then none: the next
/// registration returns `None`, and a thread that first touches the
/// runtime then runs unsupervised and is counted. An id given back goes
/// out again.
#[test]
fn thread_ids_run_out_at_max_threads() {
    let rt = Runtime::new(Config::default()).unwrap();
    let core = rt.core();
    let ids: Vec<ThreadId> = (0..MAX_THREADS)
        .map(|_| core.register_thread().unwrap())
        .collect();
    assert_eq!(ids.last(), Some(&ThreadId(MAX_THREADS as u64 - 1)));
    assert_eq!(core.register_thread(), None);
    assert_eq!(rt.current_thread(), None);
    assert_eq!(rt.stats().unsupervised_threads, 1);
    core.unregister_thread(ids[100]);
    assert_eq!(core.register_thread(), Some(ids[100]));
    assert_eq!(core.register_thread(), None);
}

/// An id given back is handed out again before any id never handed out,
/// the lowest first.
#[test]
fn a_freed_thread_id_is_handed_out_before_a_new_one() {
    let rt = Runtime::new(Config::default()).unwrap();
    let core = rt.core();
    let ids: Vec<ThreadId> = (0..4).map(|_| core.register_thread().unwrap()).collect();
    assert_eq!(ids, (0..4).map(ThreadId).collect::<Vec<_>>());
    core.unregister_thread(ids[2]);
    core.unregister_thread(ids[1]);
    assert_eq!(core.register_thread(), Some(ids[1]));
    assert_eq!(core.register_thread(), Some(ids[2]));
    assert_eq!(core.register_thread(), Some(ThreadId(4)));
}

/// Giving an id back twice is a bug in the caller, and panics.
#[test]
#[should_panic(expected = "was not in use")]
fn unregistering_a_thread_twice_panics() {
    let rt = Runtime::new(Config::default()).unwrap();
    let t = rt.core().register_thread().unwrap();
    rt.core().unregister_thread(t);
    rt.core().unregister_thread(t);
}

/// Sixteen threads registering at once get sixteen distinct ids.
#[test]
fn concurrent_registrations_get_distinct_ids() {
    const THREADS: usize = 16;
    let rt = Runtime::new(Config::default()).unwrap();
    let ready = std::sync::Barrier::new(THREADS);
    let mut ids: Vec<ThreadId> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    ready.wait();
                    rt.core().register_thread().unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), THREADS, "an id was handed out twice");
}

proptest! {
    /// Registrations and deregistrations against a set model: every id
    /// handed out is the lowest one not in use, and the pool counts exactly
    /// the ids in use.
    #[test]
    fn thread_ids_match_set_model(ops in prop::collection::vec(any::<bool>(), 0..200)) {
        let rt = Runtime::new(Config::default()).unwrap();
        let core = rt.core();
        let mut live: Vec<ThreadId> = Vec::new();
        for register in ops {
            if register {
                let t = core.register_thread().unwrap();
                let lowest = (0..).map(ThreadId).find(|t| !live.contains(t));
                prop_assert_eq!(Some(t), lowest);
                live.push(t);
            } else if let Some(t) = live.pop() {
                core.unregister_thread(t);
            }
            prop_assert_eq!(core.ids.lock().in_use(), live.len());
        }
    }
}

/// The slot lock excludes: four threads each add 1 to a plain counter
/// under it 100 000 times, and none is lost. On two cores the threads
/// contend, so the spin, the mark and the sleep all run.
#[test]
fn the_slot_lock_loses_no_increment() {
    const THREADS: u64 = 4;
    const ADDS: u64 = 100_000;
    let (lock, parker) = (SlotLock::new(0u64), Parker::default());
    let start = std::sync::Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                start.wait();
                for _ in 0..ADDS {
                    *lock.lock(&parker) += 1;
                }
            });
        }
    });
    assert_eq!(*lock.lock(&parker), THREADS * ADDS);
    assert_eq!(lock.word(), 0);
}

/// A guard dropped by a panic's unwinding frees the slot lock, and what the
/// critical section wrote before the panic stays.
#[test]
fn a_guard_dropped_while_unwinding_leaves_the_slot_lock_free() {
    let (lock, parker) = (SlotLock::new(0u32), Parker::default());
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut guard = lock.lock(&parker);
        *guard = 7;
        panic!("inside the slot critical section");
    }));
    assert!(unwound.is_err());
    assert_eq!(lock.word(), 0, "the unwinding left the lock held");
    assert_eq!(*lock.lock(&parker), 7);
}

/// A contended unlock wakes a sleeping waiter: the waiter's sleeps are a
/// minute long here, so only the unlock's notify ends one in time. The
/// holder unlocks only once the waiter has marked the word, so its unlock
/// reads the mark and notifies.
#[test]
fn a_contended_unlock_wakes_a_sleeping_waiter() {
    let (lock, parker) = (SlotLock::new(()), Parker::default());
    let nap = std::time::Duration::from_secs(60);
    let guard = lock.lock(&parker);
    std::thread::scope(|s| {
        let waiter = s.spawn(|| {
            drop(lock.lock_napping(&parker, nap));
            Instant::now()
        });
        while lock.word() != 2 {
            std::thread::yield_now();
        }
        // Long enough for the waiter to be asleep, not that it must be.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let unlocked = Instant::now();
        drop(guard);
        let woke = waiter.join().unwrap();
        assert!(woke - unlocked < nap / 2, "woken only by the timeout");
    });
    assert_eq!(lock.word(), 0);
}

/// `park` returns `Woken` for a wake that lands before it, or while it
/// waits, and `TimedOut` at its deadline when no wake comes.
#[test]
fn a_park_returns_for_a_wake_before_or_during_it_and_times_out_without_one() {
    let rt = Runtime::new(Config::default()).unwrap();
    let me = rt.core().me(rt.core().register_thread().unwrap());
    let far = || Some(Instant::now() + std::time::Duration::from_secs(60));

    let epoch0 = me.park_epoch();
    me.wake();
    assert_eq!(me.park(epoch0, far()), ParkOutcome::Woken, "wake before");

    let epoch0 = me.park_epoch();
    std::thread::scope(|s| {
        s.spawn(|| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            me.wake();
        });
        assert_eq!(me.park(epoch0, far()), ParkOutcome::Woken, "wake during");
    });

    let epoch0 = me.park_epoch();
    let deadline = Instant::now() + std::time::Duration::from_millis(20);
    assert_eq!(me.park(epoch0, Some(deadline)), ParkOutcome::TimedOut);
    assert!(Instant::now() >= deadline);
}
