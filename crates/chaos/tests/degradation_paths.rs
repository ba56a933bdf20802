//! The three scripted degradation paths, each driven end to end from a
//! seed-replayable [`FaultPlan`]:
//!
//! 1. a registered thread panics at its Nth acquire while holding locks —
//!    the unwind sweep must reclaim its state and wake its yielders (1′:
//!    the panic unwinds out of a RAII lock call under live context frames);
//! 2. the monitor panics, by a scripted fault or in a user hook — the
//!    supervisor restarts it from copies of the live RAG and predictor, as
//!    their last completed calls left them (every hold and release the
//!    dying pass applied included), and past the restart budget degrades
//!    to pass-through mode with bounded yield waits;
//! 3. the history file is torn (truncated / corrupted / crash before
//!    rename) — the next boot salvages the valid prefix.
//!
//! Scenarios serialize on the inject crate's global install lock, so they
//! can share one process.

use dimmunix_chaos::{quiet_scripted_panics, tmp_path, watchdog_join};
use dimmunix_core::config::MONITOR_RESTART_BUDGET;
use dimmunix_core::{
    frame, Config, CycleKind, HistoryError, Hooks, ImmunizedMutex, LockId, LockSite,
    PredictionConfig, Runtime, ThreadId,
};
use dimmunix_inject::{install, FaultPlan};
use dimmunix_signature::{FrameTable, History, StackTable};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Seeds a two-member deadlock signature over two synthetic sites.
fn seed_signature(rt: &Runtime) -> (dimmunix_core::LockSite, dimmunix_core::LockSite) {
    let sa = rt.make_site(&[("m", "x.rs", 1), ("u", "x.rs", 3)]);
    let sb = rt.make_site(&[("m", "x.rs", 2), ("u", "x.rs", 3)]);
    rt.history()
        .add(CycleKind::Deadlock, vec![sa.stack(), sb.stack()], 4)
        .unwrap();
    rt.history().touch();
    (sa, sb)
}

/// Path 1: scripted panic at the victim's 4th acquire, while it holds two
/// RAII guards and the raw lock every yielder's cover points at. The
/// unwind must release the guards, empty the held-lock stack, wake the parked
/// yielder and count one panic cleanup.
#[test]
fn scripted_acquire_panic_reclaims_state_and_wakes_yielders() {
    quiet_scripted_panics();
    // The victim is the first registration in a fresh runtime: slot 0.
    // Acquire ordinals count from plan install: two RAII extras, the
    // contended raw lock, then the fatal one.
    let guard = install(FaultPlan::none().panic_thread_at(0, 4));
    let rt = Runtime::new(Config {
        max_yield_duration: None,
        ..Config::default()
    })
    .unwrap();
    let (sa, sb) = seed_signature(&rt);
    rt.step_monitor(); // publish the match view

    let lock_a = Arc::new(rt.raw_lock());
    let mut handles = Vec::new();
    {
        let rt = rt.clone();
        let la = Arc::clone(&lock_a);
        let sa = sa.clone();
        handles.push(std::thread::spawn(move || {
            let extra1 = rt.mutex(());
            let extra2 = rt.mutex(());
            let _g1 = extra1.lock(); // acquire 1
            let _g2 = extra2.lock(); // acquire 2
            la.lock(&sa); // acquire 3: the cover's cause entry
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while rt.stats().yields < 1 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "waiter never yielded: {:?}",
                    rt.stats()
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            let fatal = rt.mutex(());
            let _g3 = fatal.lock(); // acquire 4: scripted panic
            unreachable!("the scripted panic must have fired");
        }));
    }
    // Wait until the victim holds its three locks before starting the
    // waiter, so the waiter registers second (slot 1, unaffected).
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while rt.stats().acquisitions < 3 {
        assert!(std::time::Instant::now() < deadline, "{:?}", rt.stats());
        std::thread::sleep(Duration::from_millis(1));
    }
    {
        let rt = rt.clone();
        let sb = sb.clone();
        handles.push(std::thread::spawn(move || {
            let lock = rt.raw_lock();
            lock.lock(&sb); // covered by the victim's entry → parks
            lock.unlock();
        }));
    }
    let results = watchdog_join(handles, Duration::from_secs(20), || {
        format!("{:?}", rt.stats())
    });
    assert!(
        results[0].is_err(),
        "the victim must die of the scripted panic"
    );
    assert!(results[1].is_ok(), "the waiter must complete normally");
    let stats = rt.stats();
    assert_eq!(stats.panic_cleanups, 1, "{stats:?}");
    assert!(stats.orphan_wakes >= 1, "{stats:?}");
    assert_eq!(guard.fired().acquire_panics, 1);
    // The victim died between its last GO and `acquired`; that grant was
    // still unpublished and must be accounted for all the same: every
    // counted outcome retired, plus the two thread exits.
    rt.step_monitor();
    let s = rt.stats();
    assert_eq!(
        s.events_processed,
        s.requests + s.gos + s.yields + s.acquisitions + s.releases + 2,
        "{s:?}"
    );
}

/// Locks `m` under two live context frames, `outer` and `inner`.
fn lock_in_two_scopes(m: &ImmunizedMutex<()>) {
    fn inner(m: &ImmunizedMutex<()>) {
        frame!("inner");
        drop(m.lock());
    }
    frame!("outer");
    inner(m);
}

/// Path 1′: the scripted acquire panic fires inside an
/// `ImmunizedMutex::lock()` taken under two live `frame!` scopes, that is,
/// while the lock call has the thread's calling context borrowed. The
/// thread dies of that one panic: the borrow is gone before the scopes'
/// frame guards pop, so none of them panics again (a second panic while
/// unwinding would abort the process). A fresh thread locking from the
/// same scopes resolves to the same stack.
#[test]
fn an_acquire_panic_inside_a_raii_lock_call_unwinds_through_its_frames() {
    quiet_scripted_panics();
    // The victim is the first registration in a fresh runtime: slot 0,
    // and its first acquire is the fatal one.
    let guard = install(FaultPlan::none().panic_thread_at(0, 1));
    let rt = Runtime::new(Config::default()).unwrap();
    let victim = {
        let rt = rt.clone();
        std::thread::spawn(move || lock_in_two_scopes(&rt.mutex(())))
    };
    let results = watchdog_join(vec![victim], Duration::from_secs(20), || {
        format!("{:?}", rt.stats())
    });
    let payload = results.into_iter().next().unwrap().unwrap_err();
    let message = payload
        .downcast_ref::<String>()
        .expect("the scripted panic");
    assert!(message.contains("scripted panic at acquire"), "{message}");
    assert_eq!(guard.fired().acquire_panics, 1);
    assert_eq!(rt.stats().panic_cleanups, 1, "{:?}", rt.stats());
    // The victim's lock interned the runtime's one stack.
    assert_eq!(rt.stack_table().len(), 1);
    let names: Vec<String> = rt
        .stack_table()
        .resolve(dimmunix_signature::StackId(0))
        .iter()
        .map(|&f| rt.frame_table().resolve(f).function.to_string())
        .collect();
    assert_eq!(names, ["outer", "inner", "<lock>"]);
    // A fresh thread (slot 0 again, past its fatal ordinal) locks from the
    // same scopes, through its own context tree, onto the same stack.
    let fresh = {
        let rt = rt.clone();
        std::thread::spawn(move || lock_in_two_scopes(&rt.mutex(())))
    };
    let results = watchdog_join(vec![fresh], Duration::from_secs(20), || {
        format!("{:?}", rt.stats())
    });
    assert!(results[0].is_ok(), "the fresh thread must lock normally");
    assert_eq!(rt.stack_table().len(), 1, "a second stack was interned");
    let s = rt.stats();
    assert_eq!((s.capture_misses, s.panic_cleanups), (2, 1), "{s:?}");
}

/// Path 2a: a single monitor panic. The supervisor restarts the monitor
/// from a copy of the live RAG, and a deadlock whose hold edges predate the
/// panic is still detected from events drained after the restart.
#[test]
fn monitor_restart_resumes_detection_from_snapshot() {
    quiet_scripted_panics();
    let guard = install(FaultPlan::none().kill_monitor_after(2, 1));
    let rt = Runtime::new(Config::default()).unwrap();
    let t0 = rt.core().register_thread().unwrap();
    let t1 = rt.core().register_thread().unwrap();
    let a = rt.new_lock_id();
    let b = rt.new_lock_id();
    let sa = rt.make_site(&[("m", "x.rs", 1), ("u", "x.rs", 3)]);
    let sb = rt.make_site(&[("m", "x.rs", 2), ("u", "x.rs", 3)]);

    // Pass 1 (succeeds): the RAG learns hold(t0, a).
    rt.core().request(t0, a, sa.frames(), sa.stack());
    rt.core().acquired(t0, a, sa.stack());
    rt.step_monitor();

    // These events sit in the lanes while pass 2 dies (the fault fires
    // before the drain, so nothing is lost with the panicked pass).
    rt.core().request(t1, b, sb.frames(), sb.stack());
    rt.core().acquired(t1, b, sb.stack());
    rt.core().request(t0, b, sb.frames(), sb.stack());
    rt.core().waiting(t0, b, sb.stack());
    rt.core().request(t1, a, sa.frames(), sa.stack());
    rt.core().waiting(t1, a, sa.stack());

    rt.step_monitor(); // pass 2: scripted panic → respawn from the live RAG
    rt.step_monitor(); // pass 3: fresh monitor drains the queued events

    let stats = rt.stats();
    assert_eq!(stats.monitor_restarts, 1, "{stats:?}");
    assert_eq!(stats.degraded_mode, 0, "{stats:?}");
    assert!(
        stats.deadlocks_detected >= 1,
        "cycle spanning the restart must be found: {stats:?}"
    );
    assert_eq!(rt.history().len(), 1);
    assert_eq!(guard.fired().monitor_faults, 1);
}

/// Path 2c: the restart also keeps the *predictor*, copied as its last
/// completed call left it. A lock ordering taught (and fully released)
/// before the panic exists only inside predictor state — the RAG holds
/// nothing about it — so a prediction fired by feeding just the inverse
/// ordering after the restart proves the respawned monitor resumed the
/// pre-panic lock-order graph and condensation rather than an empty one.
#[test]
fn monitor_restart_restores_predictor_from_snapshot() {
    quiet_scripted_panics();
    let guard = install(FaultPlan::none().kill_monitor_after(2, 1));
    let rt = Runtime::new(Config {
        prediction: Some(PredictionConfig::default()),
        ..Config::default()
    })
    .unwrap();
    let t0 = rt.core().register_thread().unwrap();
    let t1 = rt.core().register_thread().unwrap();
    let a = rt.new_lock_id();
    let b = rt.new_lock_id();
    let sa = rt.make_site(&[("m", "x.rs", 1), ("u", "x.rs", 3)]);
    let sb = rt.make_site(&[("m", "x.rs", 2), ("u", "x.rs", 3)]);

    // Pass 1 (succeeds): the predictor learns a→b, and everything is
    // released again.
    rt.core().request(t0, a, sa.frames(), sa.stack());
    rt.core().acquired(t0, a, sa.stack());
    rt.core().request(t0, b, sb.frames(), sb.stack());
    rt.core().acquired(t0, b, sb.stack());
    rt.core().release(t0, b);
    rt.core().release(t0, a);
    rt.step_monitor();

    rt.step_monitor(); // pass 2: scripted panic → respawn from the live copies

    // Only the inverse ordering arrives after the restart. Predicting the
    // a↔b cycle needs the pre-panic a→b edge from the copied predictor.
    rt.core().request(t1, b, sb.frames(), sb.stack());
    rt.core().acquired(t1, b, sb.stack());
    rt.core().request(t1, a, sa.frames(), sa.stack());
    rt.core().acquired(t1, a, sa.stack());
    rt.core().release(t1, a);
    rt.core().release(t1, b);
    rt.step_monitor(); // pass 3: drains b→a, merges, predicts

    let stats = rt.stats();
    assert_eq!(stats.monitor_restarts, 1, "{stats:?}");
    assert_eq!(stats.degraded_mode, 0, "{stats:?}");
    assert!(
        stats.cycles_predicted >= 1,
        "cycle spanning the restart must be predicted from the restored \
         predictor snapshot: {stats:?}"
    );
    assert!(stats.predicted_signatures >= 1, "{stats:?}");
    assert_eq!(rt.history().len(), 1);
    assert_eq!(guard.fired().monitor_faults, 1);
}

/// Path 2c′: a pass that dies after its predictor found a cycle and before
/// the cycle reached the history. The predictor has already marked the
/// cycle emitted, so a copy of it would never report the cycle again: the
/// restart must start a fresh predictor, and the cycle, taught again,
/// reaches the history after all.
#[test]
fn a_monitor_panic_before_a_prediction_is_archived_restarts_a_fresh_predictor() {
    quiet_scripted_panics();
    let guard = install(FaultPlan::none().kill_monitor_after_prediction(1));
    let rt = Runtime::new(Config {
        prediction: Some(PredictionConfig::default()),
        ..Config::default()
    })
    .unwrap();
    let t0 = rt.core().register_thread().unwrap();
    let t1 = rt.core().register_thread().unwrap();
    let (a, b) = (rt.new_lock_id(), rt.new_lock_id());
    let sa = rt.make_site(&[("m", "x.rs", 1), ("u", "x.rs", 3)]);
    let sb = rt.make_site(&[("m", "x.rs", 2), ("u", "x.rs", 3)]);
    // `t` takes two locks nested in the given order, then releases both.
    let nest = |t, order: [(dimmunix_core::LockId, &dimmunix_core::LockSite); 2]| {
        for (l, site) in order {
            rt.core().request(t, l, site.frames(), site.stack());
            rt.core().acquired(t, l, site.stack());
        }
        for (l, _) in order.into_iter().rev() {
            rt.core().release(t, l);
        }
    };
    let predicted = || (rt.stats().cycles_predicted, rt.history().len());

    nest(t0, [(a, &sa), (b, &sb)]);
    rt.step_monitor(); // pass 1: learns a→b, predicts nothing
    nest(t1, [(b, &sb), (a, &sa)]);
    rt.step_monitor(); // pass 2: finds a↔b, dies before archiving it
    assert_eq!(guard.fired().prediction_faults, 1);
    assert_eq!(rt.stats().monitor_restarts, 1);
    assert_eq!(predicted(), (0, 0), "the dying pass archived nothing");

    // The fresh predictor learned nothing before the panic: both orders
    // are taught again, and the cycle is predicted and archived.
    nest(t0, [(a, &sa), (b, &sb)]);
    rt.step_monitor();
    nest(t1, [(b, &sb), (a, &sa)]);
    rt.step_monitor();
    let stats = rt.stats();
    assert_eq!(predicted(), (1, 1), "{stats:?}");
    assert_eq!(stats.predicted_signatures, 1, "{stats:?}");
    assert_eq!(stats.monitor_restarts, 1, "{stats:?}");
    assert_eq!(stats.degraded_mode, 0, "{stats:?}");
}

/// A runtime whose deadlock hook panics the first time it runs, and the
/// flag that says it has.
fn runtime_whose_deadlock_hook_panics_once(config: Config) -> (Runtime, Arc<AtomicBool>) {
    let fired = Arc::new(AtomicBool::new(false));
    let hooks = Hooks {
        on_deadlock: Some(Box::new({
            let fired = Arc::clone(&fired);
            move |_, _| {
                if !fired.swap(true, Ordering::SeqCst) {
                    panic!("scripted: the deadlock hook panics once");
                }
            }
        })),
        ..Hooks::default()
    };
    (Runtime::with_hooks(config, hooks).unwrap(), fired)
}

/// `t` requests `l` and acquires it.
fn acquire(rt: &Runtime, t: ThreadId, l: LockId, s: &LockSite) {
    rt.core().request(t, l, s.frames(), s.stack());
    rt.core().acquired(t, l, s.stack());
}

/// `t` requests `l`, finds it taken and is about to block on it.
fn wait(rt: &Runtime, t: ThreadId, l: LockId, s: &LockSite) {
    rt.core().request(t, l, s.frames(), s.stack());
    rt.core().waiting(t, l, s.stack());
}

/// Five sites, one per lock of the hook scenarios.
fn hook_sites(rt: &Runtime) -> [LockSite; 5] {
    [1, 2, 3, 4, 5].map(|line| rt.make_site(&[("m", "hook.rs", line), ("u", "hook.rs", 9)]))
}

/// `t0` holds `a` and waits for `b`, `t1` holds `b` and waits for `a`.
fn deadlock(rt: &Runtime, [t0, t1]: [ThreadId; 2], [a, b]: [LockId; 2], [sa, sb]: [&LockSite; 2]) {
    acquire(rt, t0, a, sa);
    acquire(rt, t1, b, sb);
    wait(rt, t0, b, sb);
    wait(rt, t1, a, sa);
}

/// Path 2d: a user hook that panics mid-pass, the one monitor panic user
/// code can reach. The deadlock hook runs after the pass has fed the
/// predictor and the RAG and archived the cycle, so the restart keeps all
/// three: the deadlock's signature stays in the history, and an order the
/// dying pass fed still predicts its inverse after the restart.
#[test]
fn a_deadlock_hook_that_panics_keeps_the_signature_and_what_the_pass_fed() {
    quiet_scripted_panics();
    // No fault is scripted; the install keeps other scenarios' plans out.
    let _guard = install(FaultPlan::none());
    let (rt, fired) = runtime_whose_deadlock_hook_panics_once(Config {
        prediction: Some(PredictionConfig::default()),
        ..Config::default()
    });
    let [t0, t1, t2, t3] = [(); 4].map(|()| rt.core().register_thread().unwrap());
    let [a, b, c, d] = [(); 4].map(|()| rt.new_lock_id());
    let [sa, sb, sc, sd, _] = hook_sites(&rt);

    // One pass: t0 and t1 deadlock over a and b, and t2 orders c before d.
    deadlock(&rt, [t0, t1], [a, b], [&sa, &sb]);
    acquire(&rt, t2, c, &sc);
    acquire(&rt, t2, d, &sd);
    rt.core().release(t2, d);
    rt.core().release(t2, c);
    rt.step_monitor(); // detects, archives, the hook panics → respawn

    let stats = rt.stats();
    assert!(fired.load(Ordering::SeqCst));
    assert_eq!(stats.monitor_restarts, 1, "{stats:?}");
    assert_eq!(stats.degraded_mode, 0, "{stats:?}");
    assert_eq!(stats.deadlocks_detected, 1, "{stats:?}");
    let detected = rt.history().find_by_stacks(&[sa.stack(), sb.stack()]);
    assert!(detected.is_some(), "{:?}", rt.history().snapshot());
    assert_eq!(stats.cycles_predicted, 0, "{stats:?}");

    // Only the inverse of t2's order arrives after the restart.
    acquire(&rt, t3, d, &sd);
    acquire(&rt, t3, c, &sc);
    rt.core().release(t3, c);
    rt.core().release(t3, d);
    rt.step_monitor();

    let stats = rt.stats();
    assert_eq!(stats.monitor_restarts, 1, "{stats:?}");
    assert_eq!(stats.cycles_predicted, 1, "{stats:?}");
    assert_eq!(stats.predicted_signatures, 1, "{stats:?}");
    assert_eq!(rt.history().len(), 2);
}

/// Path 2e: the holds a dying pass drew survive its restart. In the pass
/// whose deadlock hook panics, `t2` nests `c → d` and keeps both. After the
/// restart, `t3` holds `e` and waits for `d`, and `t2` waits for `e`: a
/// deadlock that only the hold of `d` drawn by the dying pass closes. The
/// a↔b deadlock, whose pass died, is reported again, and its signature
/// stays in the history once.
#[test]
fn a_hold_drawn_by_a_dying_pass_closes_a_deadlock_after_the_restart() {
    quiet_scripted_panics();
    let _guard = install(FaultPlan::none());
    let (rt, fired) = runtime_whose_deadlock_hook_panics_once(Config::default());
    let [t0, t1, t2, t3] = [(); 4].map(|()| rt.core().register_thread().unwrap());
    let [a, b, c, d, e] = [(); 5].map(|()| rt.new_lock_id());
    let [sa, sb, sc, sd, se] = hook_sites(&rt);

    deadlock(&rt, [t0, t1], [a, b], [&sa, &sb]);
    acquire(&rt, t2, c, &sc);
    acquire(&rt, t2, d, &sd);
    rt.step_monitor(); // detects a↔b, the hook panics → respawn
    assert!(fired.load(Ordering::SeqCst));
    assert_eq!(rt.stats().deadlocks_detected, 1);

    acquire(&rt, t3, e, &se);
    wait(&rt, t3, d, &sd);
    wait(&rt, t2, e, &se);
    rt.step_monitor();

    let stats = rt.stats();
    assert_eq!(stats.monitor_restarts, 1, "{stats:?}");
    let closed = rt.history().find_by_stacks(&[sd.stack(), se.stack()]);
    assert!(closed.is_some(), "{:?}", rt.history().snapshot());
    assert_eq!(stats.deadlocks_detected, 3, "{stats:?}");
    assert_eq!(rt.history().len(), 2);
}

/// Path 2f: the releases a dying pass applied survive its restart. `t2`
/// nests `c → d` in a pass that completes, and releases both in the pass
/// whose deadlock hook panics. After the restart, `t5` takes `d` in a lone
/// pair (a quiet hold, no event), `t4` holds `x` and waits for `d`, and
/// `t2` waits for `x`. There is no deadlock: `t5` waits for nothing. A RAG
/// that still showed `t2` holding `d` would archive `{sd, sx}`, a yield
/// the program would then pay for good.
#[test]
fn a_release_applied_by_a_dying_pass_leaves_no_false_deadlock_after_the_restart() {
    quiet_scripted_panics();
    let _guard = install(FaultPlan::none());
    let (rt, fired) = runtime_whose_deadlock_hook_panics_once(Config::default());
    let [t0, t1, t2, t4, t5] = [(); 5].map(|()| rt.core().register_thread().unwrap());
    let [a, b, c, d, x] = [(); 5].map(|()| rt.new_lock_id());
    let [sa, sb, sc, sd, sx] = hook_sites(&rt);

    acquire(&rt, t2, c, &sc);
    acquire(&rt, t2, d, &sd);
    rt.step_monitor(); // completes: the RAG shows t2 holding c and d
    deadlock(&rt, [t0, t1], [a, b], [&sa, &sb]);
    rt.core().release(t2, d);
    rt.core().release(t2, c);
    rt.step_monitor(); // detects a↔b, the hook panics → respawn
    assert!(fired.load(Ordering::SeqCst));

    acquire(&rt, t5, d, &sd);
    acquire(&rt, t4, x, &sx);
    wait(&rt, t4, d, &sd);
    wait(&rt, t2, x, &sx);
    rt.step_monitor();

    let stats = rt.stats();
    assert_eq!(stats.monitor_restarts, 1, "{stats:?}");
    let false_deadlock = rt.history().find_by_stacks(&[sd.stack(), sx.stack()]);
    assert!(false_deadlock.is_none(), "{:?}", rt.history().snapshot());
    assert_eq!(stats.deadlocks_detected, 2, "{stats:?}");
    assert_eq!(rt.history().len(), 1);
}

/// Path 2b: the monitor keeps dying. After the restart budget the runtime
/// flips to degraded pass-through mode: passes stop panicking (no fault
/// hooks there), avoidance decisions stay sound against the published
/// view, and parked yields fall back to the bounded degraded wait instead
/// of parking forever.
#[test]
fn monitor_restart_budget_exhaustion_degrades_gracefully() {
    quiet_scripted_panics();
    let _guard = install(FaultPlan::none().kill_monitor_after(1, 0)); // every pass
    let rt = Runtime::new(Config {
        max_yield_duration: None,
        ..Config::default()
    })
    .unwrap();

    // Panics 1 ..= budget restart; one more exceeds the budget.
    for _ in 0..=MONITOR_RESTART_BUDGET {
        rt.step_monitor();
    }
    let stats = rt.stats();
    assert!(rt.degraded());
    assert_eq!(
        stats.monitor_restarts,
        u64::from(MONITOR_RESTART_BUDGET) + 1,
        "{stats:?}"
    );
    assert_eq!(stats.degraded_mode, 1, "{stats:?}");

    // Degraded passes are fault-free pass-throughs.
    rt.step_monitor();

    // Decisions are still sound against the last published view: a
    // vaccination arriving in degraded mode still takes effect (the
    // pass-through pass keeps republishing).
    let (sa, sb) = seed_signature(&rt);
    rt.step_monitor();
    let t0 = rt.core().register_thread().unwrap();
    let a = rt.new_lock_id();
    rt.core().request(t0, a, sa.frames(), sa.stack());
    rt.core().acquired(t0, a, sa.stack());

    // A real thread yielding against it parks with the bounded degraded
    // wait (`DEGRADED_YIELD_WAIT`), aborts, and completes — no monitor will
    // ever wake it.
    let waiter = {
        let rt = rt.clone();
        let sb = sb.clone();
        std::thread::spawn(move || {
            let lock = rt.raw_lock();
            lock.lock(&sb);
            lock.unlock();
        })
    };
    watchdog_join(vec![waiter], Duration::from_secs(10), || {
        format!("degraded yield never released: {:?}", rt.stats())
    })
    .pop()
    .unwrap()
    .unwrap();
    let stats = rt.stats();
    assert!(stats.yields >= 1, "{stats:?}");
    assert!(stats.yield_aborts >= 1, "bounded degraded wait: {stats:?}");
}

/// Builds a standalone 3-signature history and returns its serialized
/// clean bytes alongside the tables used to build it.
fn three_sig_history() -> (History, FrameTable, StackTable) {
    let frames = FrameTable::new();
    let stacks = StackTable::new();
    let h = History::new();
    for n in 0..3_u32 {
        let fa = frames.intern("f", "x.rs", 10 + n);
        let fb = frames.intern("g", "x.rs", 20 + n);
        h.add(
            CycleKind::Deadlock,
            vec![stacks.intern(&[fa]), stacks.intern(&[fb])],
            4,
        )
        .unwrap();
    }
    (h, frames, stacks)
}

/// Saves [`three_sig_history`] to a fresh temp file, truncated inside the
/// third signature's header line.
fn truncated_history_file(name: &str) -> std::path::PathBuf {
    let path = tmp_path(name);
    std::fs::remove_file(&path).ok();
    let (h, frames, stacks) = three_sig_history();
    h.save_to(&path, &frames, &stacks).unwrap();
    let clean = std::fs::read_to_string(&path).unwrap();
    let third_sig = clean.match_indices("signature ").nth(2).unwrap().0;
    let guard = install(FaultPlan::none().truncate_history_at(third_sig as u64 + 18));
    h.save_to(&path, &frames, &stacks).unwrap();
    assert_eq!(guard.fired().history_faults, 1);
    path
}

/// Path 3a: truncation mid-signature. The next boot salvages the valid
/// prefix, reports accurate counts, and counts the salvage.
#[test]
fn truncated_history_is_salvaged_at_boot() {
    let path = truncated_history_file("truncate");
    let rt = Runtime::new(Config {
        history_path: Some(path.clone()),
        ..Config::default()
    })
    .unwrap();
    let rec = rt.history_recovery().expect("torn file ⇒ recovery report");
    assert_eq!((rec.recovered, rec.dropped), (2, 1), "{rec:?}");
    assert_eq!(rt.history().len(), 2);
    assert_eq!(rt.stats().history_salvaged, 1);
    std::fs::remove_file(&path).ok();
}

/// Path 3a with `history_salvage` off: the same torn file is a boot error —
/// no runtime, no partial history — and the file is left as it was found,
/// for whoever repairs it.
#[test]
fn truncated_history_without_salvage_refuses_to_boot() {
    let path = truncated_history_file("truncate-strict");
    let torn = std::fs::read(&path).unwrap();
    let booted = Runtime::new(Config {
        history_path: Some(path.clone()),
        history_salvage: false,
        ..Config::default()
    });
    assert!(
        matches!(booted, Err(HistoryError::Parse { .. })),
        "strict open of a torn file: {:?}",
        booted.map(|_| "a runtime")
    );
    assert_eq!(std::fs::read(&path).unwrap(), torn, "file untouched");
    std::fs::remove_file(&path).ok();
}

/// Path 3b: crash between the temp write and the rename. The published
/// file keeps its previous contents (atomicity), and the orphaned temp
/// file is left beside it.
#[test]
fn crash_before_rename_preserves_previous_history() {
    let path = tmp_path("crash-rename");
    std::fs::remove_file(&path).ok();
    let (h, frames, stacks) = three_sig_history();
    h.save_to(&path, &frames, &stacks).unwrap();

    // Grow the history, then "crash" during the save.
    let fa = frames.intern("late", "x.rs", 99);
    let fb = frames.intern("late2", "x.rs", 98);
    h.add(
        CycleKind::Deadlock,
        vec![stacks.intern(&[fa]), stacks.intern(&[fb])],
        4,
    )
    .unwrap();
    let guard = install(FaultPlan::none().crash_before_rename());
    h.save_to(&path, &frames, &stacks).unwrap();
    assert_eq!(guard.fired().history_faults, 1);
    drop(guard);

    // The published file still holds the pre-crash 3 signatures.
    let rt = Runtime::new(Config {
        history_path: Some(path.clone()),
        ..Config::default()
    })
    .unwrap();
    assert!(rt.history_recovery().is_none(), "old file is intact");
    assert_eq!(rt.history().len(), 3);
    // The unpublished temp file was left behind in the same directory.
    let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
    let orphans = std::fs::read_dir(path.parent().unwrap())
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            let n = e.file_name().to_string_lossy().into_owned();
            n.starts_with(&stem) && n.ends_with(".tmp")
        })
        .count();
    assert!(orphans >= 1, "crash must leave the temp file");
    // Tidy up the orphans and the history file.
    for e in std::fs::read_dir(path.parent().unwrap()).unwrap().flatten() {
        let n = e.file_name().to_string_lossy().into_owned();
        if n.starts_with(&stem) {
            std::fs::remove_file(e.path()).ok();
        }
    }
}

/// Path 3c: a corrupt byte mid-file. Whether it breaks a line or only the
/// checksum, boot-time salvage must produce a report and a usable runtime.
#[test]
fn corrupted_history_is_salvaged_at_boot() {
    let path = tmp_path("corrupt");
    std::fs::remove_file(&path).ok();
    let (h, frames, stacks) = three_sig_history();
    let guard = install(FaultPlan::none().corrupt_history_at(40));
    h.save_to(&path, &frames, &stacks).unwrap();
    assert_eq!(guard.fired().history_faults, 1);
    drop(guard);

    let rt = Runtime::new(Config {
        history_path: Some(path.clone()),
        ..Config::default()
    })
    .unwrap();
    let rec = rt.history_recovery().expect("corruption ⇒ recovery report");
    assert!(rec.error.is_some(), "{rec:?}");
    assert_eq!(rt.stats().history_salvaged, 1);
    assert_eq!(rt.history().len(), rec.recovered);
    std::fs::remove_file(&path).ok();
}
