//! End-to-end tests of the detection → signature → avoidance pipeline,
//! driving the avoidance core with explicit thread ids (no real blocking)
//! and stepping the monitor deterministically.

use dimmunix_core::{Config, CycleKind, Decision, Immunity, Runtime, RuntimeMode};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn quiet_config() -> Config {
    Config {
        history_path: None,
        ..Config::default()
    }
}

/// Replays the paper's §4 scenario at the hook level: two threads locking
/// A and B in opposite orders with distinct call paths.
struct AbbaWorld {
    rt: Runtime,
    t0: dimmunix_core::ThreadId,
    t1: dimmunix_core::ThreadId,
    lock_a: dimmunix_core::LockId,
    lock_b: dimmunix_core::LockId,
    /// Stack for "main:s1 → update:s3" (locks A first).
    site_a_first: dimmunix_core::LockSite,
    /// Stack for "main:s2 → update:s3" (locks B first).
    site_b_first: dimmunix_core::LockSite,
    /// Stack for the second lock inside update (s4).
    site_second: dimmunix_core::LockSite,
}

impl AbbaWorld {
    fn new(config: Config) -> Self {
        let rt = Runtime::new(config).unwrap();
        let t0 = rt.core().register_thread().unwrap();
        let t1 = rt.core().register_thread().unwrap();
        let lock_a = rt.new_lock_id();
        let lock_b = rt.new_lock_id();
        let site_a_first = rt.make_site(&[("main", "ex.rs", 1), ("update", "ex.rs", 3)]);
        let site_b_first = rt.make_site(&[("main", "ex.rs", 2), ("update", "ex.rs", 3)]);
        let site_second = rt.make_site(&[("main", "ex.rs", 9), ("update", "ex.rs", 4)]);
        Self {
            rt,
            t0,
            t1,
            lock_a,
            lock_b,
            site_a_first,
            site_b_first,
            site_second,
        }
    }

    fn request(
        &self,
        t: dimmunix_core::ThreadId,
        l: dimmunix_core::LockId,
        site: &dimmunix_core::LockSite,
    ) -> Decision {
        self.rt.core().request(t, l, site.frames(), site.stack())
    }

    fn acquire(
        &self,
        t: dimmunix_core::ThreadId,
        l: dimmunix_core::LockId,
        site: &dimmunix_core::LockSite,
    ) {
        match self.request(t, l, site) {
            Decision::Go => self.rt.core().acquired(t, l, site.stack()),
            Decision::Yield { .. } => panic!("unexpected yield"),
        }
    }

    /// `t` is granted `l`, finds it taken and blocks on it: the `waiting`
    /// hook publishes the allow edge a deadlock cycle runs through.
    fn block_on(
        &self,
        t: dimmunix_core::ThreadId,
        l: dimmunix_core::LockId,
        site: &dimmunix_core::LockSite,
    ) {
        assert!(matches!(self.request(t, l, site), Decision::Go));
        self.rt.core().waiting(t, l, site.stack());
    }

    /// Drives both threads into the classic deadlocked state (as seen by
    /// the monitor) and lets the monitor capture the signature.
    fn run_first_deadlock(&self) {
        // T0: update(A, B) — holds A, waits for B.
        self.acquire(self.t0, self.lock_a, &self.site_a_first);
        // T1: update(B, A) — holds B, waits for A.
        self.acquire(self.t1, self.lock_b, &self.site_b_first);
        // Both now request the opposite lock; with an empty history both get
        // GO and block, which is the deadlock.
        self.block_on(self.t0, self.lock_b, &self.site_second);
        self.block_on(self.t1, self.lock_a, &self.site_second);
        self.rt.step_monitor();
    }
}

#[test]
fn first_deadlock_is_detected_and_archived() {
    let w = AbbaWorld::new(quiet_config());
    w.run_first_deadlock();
    let stats = w.rt.stats();
    assert_eq!(stats.deadlocks_detected, 1);
    // Detected through the lanes: each thread's hold (a quiet hold turned
    // `Granted` by the nested request) and allow edge, drained in one pass.
    assert_eq!(stats.lane_high_water, 2, "{stats:?}");
    assert_eq!(stats.signatures_added, 1);
    let sigs = w.rt.history().snapshot();
    assert_eq!(sigs.len(), 1);
    assert_eq!(sigs[0].kind, CycleKind::Deadlock);
    // Two threads in the cycle ⇒ two stacks in the signature.
    assert_eq!(sigs[0].size(), 2);
    assert_eq!(sigs[0].depth(), 4, "default matching depth");
}

#[test]
fn deadlock_hook_fires_with_cycle_threads() {
    let seen = Arc::new(AtomicUsize::new(0));
    let seen2 = Arc::clone(&seen);
    let hooks = dimmunix_core::Hooks {
        on_deadlock: Some(Box::new(move |_sig, threads| {
            seen2.store(threads.len(), Ordering::SeqCst);
        })),
        ..Default::default()
    };
    let rt = Runtime::with_hooks(quiet_config(), hooks).unwrap();
    let w = AbbaWorld {
        t0: rt.core().register_thread().unwrap(),
        t1: rt.core().register_thread().unwrap(),
        lock_a: rt.new_lock_id(),
        lock_b: rt.new_lock_id(),
        site_a_first: rt.make_site(&[("main", "ex.rs", 1), ("update", "ex.rs", 3)]),
        site_b_first: rt.make_site(&[("main", "ex.rs", 2), ("update", "ex.rs", 3)]),
        site_second: rt.make_site(&[("main", "ex.rs", 9), ("update", "ex.rs", 4)]),
        rt,
    };
    w.run_first_deadlock();
    assert_eq!(seen.load(Ordering::SeqCst), 2);
}

#[test]
fn second_encounter_is_avoided_by_yield() {
    let w = AbbaWorld::new(quiet_config());
    w.run_first_deadlock();
    // "Restart": release everything (deadlock resolution is external).
    w.rt.core().release(w.t0, w.lock_a);
    w.rt.core().release(w.t1, w.lock_b);
    w.rt.core().cancel(w.t0, w.lock_b);
    w.rt.core().cancel(w.t1, w.lock_a);
    w.rt.step_monitor();

    // Re-run the pattern: T1 takes B first this time.
    w.acquire(w.t1, w.lock_b, &w.site_b_first);
    // T0 now asks for A on the deadlock-prone path: Dimmunix must foresee
    // the signature instantiation and yield T0.
    let d = w.request(w.t0, w.lock_a, &w.site_a_first);
    let Decision::Yield { sig } = d else {
        panic!("expected yield, got {d:?}");
    };
    assert_eq!(sig.avoided(), 1);
    assert!(w.rt.core().is_yielding(w.t0));
    assert_eq!(w.rt.stats().yields, 1);

    // T1 finishes its critical section: takes A (same depth-d path ok),
    // releases both.
    w.acquire(w.t1, w.lock_a, &w.site_second);
    w.rt.core().release(w.t1, w.lock_a);
    let wake = w.rt.core().release(w.t1, w.lock_b);
    assert!(
        wake.contains(&w.t0),
        "releasing the cause lock must wake the yielder"
    );
    // T0 retries and now proceeds.
    assert!(matches!(
        w.request(w.t0, w.lock_a, &w.site_a_first),
        Decision::Go
    ));
}

/// A hand-off that only ever goes one way — T0 always the yielder, T1 always
/// the cause — allocates for its first registration only: T1's release takes
/// the waiter out of its log and keeps the list's capacity, where T0's next
/// registration finds room.
#[test]
fn one_way_handoff_registrations_stop_allocating() {
    const ROUNDS: u64 = 50;
    let w = AbbaWorld::new(quiet_config());
    w.run_first_deadlock();
    w.rt.core().release(w.t0, w.lock_a);
    w.rt.core().release(w.t1, w.lock_b);
    w.rt.core().cancel(w.t0, w.lock_b);
    w.rt.core().cancel(w.t1, w.lock_a);
    w.rt.step_monitor();

    for _ in 0..ROUNDS {
        w.acquire(w.t1, w.lock_b, &w.site_b_first);
        let d = w.request(w.t0, w.lock_a, &w.site_a_first);
        assert!(matches!(d, Decision::Yield { .. }), "{d:?}");
        assert_eq!(w.rt.core().release(w.t1, w.lock_b), vec![w.t0]);
        w.acquire(w.t0, w.lock_a, &w.site_a_first);
        w.rt.core().release(w.t0, w.lock_a);
    }
    let stats = w.rt.stats();
    assert_eq!(stats.yields, ROUNDS);
    assert_eq!(stats.wake_pool_hits + stats.wake_pool_misses, ROUNDS);
    assert!(
        stats.wake_pool_misses <= 2,
        "{} misses",
        stats.wake_pool_misses
    );
}

#[test]
fn lock_identities_do_not_matter_only_stacks() {
    // The same control flow over *different* lock objects must still match:
    // signatures are portable across lock identities (§5.3).
    let w = AbbaWorld::new(quiet_config());
    w.run_first_deadlock();
    w.rt.core().release(w.t0, w.lock_a);
    w.rt.core().release(w.t1, w.lock_b);
    w.rt.core().cancel(w.t0, w.lock_b);
    w.rt.core().cancel(w.t1, w.lock_a);
    w.rt.step_monitor();

    // Fresh locks C and D, same call paths.
    let lock_c = w.rt.new_lock_id();
    let lock_d = w.rt.new_lock_id();
    w.acquire(w.t1, lock_d, &w.site_b_first);
    let d = w.request(w.t0, lock_c, &w.site_a_first);
    assert!(
        matches!(d, Decision::Yield { .. }),
        "pattern must match on fresh locks, got {d:?}"
    );
}

#[test]
fn different_call_path_is_not_avoided() {
    // The paper's <Ti:[s1,s3], Tj:[s1,s3]> pattern does not deadlock and
    // must not be serialized (the finer-grain-than-gate-locks claim, §4).
    let w = AbbaWorld::new(quiet_config());
    w.run_first_deadlock();
    w.rt.core().release(w.t0, w.lock_a);
    w.rt.core().release(w.t1, w.lock_b);
    w.rt.core().cancel(w.t0, w.lock_b);
    w.rt.core().cancel(w.t1, w.lock_a);
    w.rt.step_monitor();

    // T1 holds B acquired through the *same* path T0 will use (both s1):
    // the signature multiset {[s1,s3],[s2,s3]} is not instantiable.
    let lock_c = w.rt.new_lock_id();
    w.acquire(w.t1, lock_c, &w.site_a_first);
    let d = w.request(w.t0, w.lock_a, &w.site_a_first);
    assert!(
        matches!(d, Decision::Go),
        "same-path execution must not be flagged, got {d:?}"
    );
}

#[test]
fn deadlock_free_program_has_empty_history() {
    // §5.7: a program that never deadlocks keeps an empty history and is
    // never steered.
    let rt = Runtime::new(quiet_config()).unwrap();
    let t0 = rt.core().register_thread().unwrap();
    let site = rt.make_site(&[("w", "x.rs", 1)]);
    for i in 0..100 {
        let l = rt.new_lock_id();
        assert!(matches!(
            rt.core().request(t0, l, site.frames(), site.stack()),
            Decision::Go
        ));
        rt.core().acquired(t0, l, site.stack());
        rt.core().release(t0, l);
        if i % 10 == 0 {
            rt.step_monitor();
        }
    }
    rt.step_monitor();
    assert!(rt.history().is_empty());
    assert_eq!(rt.stats().yields, 0);
}

#[test]
fn starvation_is_detected_saved_and_broken() {
    // Build an induced-starvation state: T1 yields because of T0, while T0
    // is blocked on a lock T1 holds.
    let cfg = quiet_config();
    let rt = Runtime::new(cfg).unwrap();
    let t0 = rt.core().register_thread().unwrap();
    let t1 = rt.core().register_thread().unwrap();
    let a = rt.new_lock_id();
    let b = rt.new_lock_id();
    let c = rt.new_lock_id();
    let site_sa = rt.make_site(&[("m", "x.rs", 1), ("u", "x.rs", 3)]);
    let site_sb = rt.make_site(&[("m", "x.rs", 2), ("u", "x.rs", 3)]);
    let site_other = rt.make_site(&[("q", "x.rs", 7)]);

    // Seed the history with signature {SA, SB} via a real deadlock.
    rt.core().request(t0, a, site_sa.frames(), site_sa.stack());
    rt.core().acquired(t0, a, site_sa.stack());
    rt.core().request(t1, b, site_sb.frames(), site_sb.stack());
    rt.core().acquired(t1, b, site_sb.stack());
    rt.core()
        .request(t0, b, site_other.frames(), site_other.stack());
    rt.core().waiting(t0, b, site_other.stack());
    rt.core()
        .request(t1, a, site_other.frames(), site_other.stack());
    rt.core().waiting(t1, a, site_other.stack());
    rt.step_monitor();
    assert_eq!(rt.stats().deadlocks_detected, 1);
    // External recovery.
    rt.core().release(t0, a);
    rt.core().release(t1, b);
    rt.core().cancel(t0, b);
    rt.core().cancel(t1, a);
    rt.step_monitor();

    // Now: T1 acquires C (unrelated), T0 acquires A (stack SA), T0 blocks
    // on C (held by T1), then T1 requests B with stack SB → yields because
    // of T0's hold on A. T0 can never proceed (T1 holds C), so T1 starves.
    rt.core()
        .request(t1, c, site_other.frames(), site_other.stack());
    rt.core().acquired(t1, c, site_other.stack());
    rt.core().request(t0, a, site_sa.frames(), site_sa.stack());
    rt.core().acquired(t0, a, site_sa.stack());
    rt.core()
        .request(t0, c, site_other.frames(), site_other.stack());
    rt.core().waiting(t0, c, site_other.stack());
    // T0 is now blocked on C.
    let d = rt.core().request(t1, b, site_sb.frames(), site_sb.stack());
    assert!(matches!(d, Decision::Yield { .. }), "got {d:?}");

    rt.step_monitor();
    let stats = rt.stats();
    assert_eq!(stats.starvations_detected, 1, "{stats:?}");
    assert_eq!(stats.yields_broken, 1, "the monitor must break the yield");
    assert!(rt.core().take_broken(t1), "t1 must see the broken flag");
    // A starvation signature is archived alongside the deadlock one.
    let kinds: Vec<CycleKind> = rt.rt_history_kinds();
    assert!(kinds.contains(&CycleKind::Starvation));
}

trait HistoryKinds {
    fn rt_history_kinds(&self) -> Vec<CycleKind>;
}

impl HistoryKinds for Runtime {
    fn rt_history_kinds(&self) -> Vec<CycleKind> {
        self.history().snapshot().iter().map(|s| s.kind).collect()
    }
}

#[test]
fn strong_immunity_requests_restart_instead_of_breaking() {
    let restarts = Arc::new(AtomicUsize::new(0));
    let r2 = Arc::clone(&restarts);
    let hooks = dimmunix_core::Hooks {
        on_restart_required: Some(Box::new(move || {
            r2.fetch_add(1, Ordering::SeqCst);
        })),
        ..Default::default()
    };
    let cfg = Config {
        immunity: Immunity::Strong,
        ..quiet_config()
    };
    let rt = Runtime::with_hooks(cfg, hooks).unwrap();
    let t0 = rt.core().register_thread().unwrap();
    let t1 = rt.core().register_thread().unwrap();
    let a = rt.new_lock_id();
    let b = rt.new_lock_id();
    let c = rt.new_lock_id();
    let site_sa = rt.make_site(&[("m", "x.rs", 1), ("u", "x.rs", 3)]);
    let site_sb = rt.make_site(&[("m", "x.rs", 2), ("u", "x.rs", 3)]);
    let site_other = rt.make_site(&[("q", "x.rs", 7)]);

    // Seed signature.
    rt.core().request(t0, a, site_sa.frames(), site_sa.stack());
    rt.core().acquired(t0, a, site_sa.stack());
    rt.core().request(t1, b, site_sb.frames(), site_sb.stack());
    rt.core().acquired(t1, b, site_sb.stack());
    rt.core()
        .request(t0, b, site_other.frames(), site_other.stack());
    rt.core().waiting(t0, b, site_other.stack());
    rt.core()
        .request(t1, a, site_other.frames(), site_other.stack());
    rt.core().waiting(t1, a, site_other.stack());
    rt.step_monitor();
    rt.core().release(t0, a);
    rt.core().release(t1, b);
    rt.core().cancel(t0, b);
    rt.core().cancel(t1, a);
    rt.step_monitor();

    // Same starvation construction as above.
    rt.core()
        .request(t1, c, site_other.frames(), site_other.stack());
    rt.core().acquired(t1, c, site_other.stack());
    rt.core().request(t0, a, site_sa.frames(), site_sa.stack());
    rt.core().acquired(t0, a, site_sa.stack());
    rt.core()
        .request(t0, c, site_other.frames(), site_other.stack());
    rt.core().waiting(t0, c, site_other.stack());
    rt.core().request(t1, b, site_sb.frames(), site_sb.stack());
    rt.step_monitor();

    assert_eq!(restarts.load(Ordering::SeqCst), 1);
    assert_eq!(rt.stats().yields_broken, 0, "strong mode does not break");
}

#[test]
fn disabled_signature_is_not_avoided() {
    let w = AbbaWorld::new(quiet_config());
    w.run_first_deadlock();
    w.rt.core().release(w.t0, w.lock_a);
    w.rt.core().release(w.t1, w.lock_b);
    w.rt.core().cancel(w.t0, w.lock_b);
    w.rt.core().cancel(w.t1, w.lock_a);
    w.rt.step_monitor();
    // User disables the signature ("the way s/he would enable pop-ups").
    let sig = w.rt.history().snapshot()[0].clone();
    sig.set_disabled(true);
    w.rt.history().touch();

    w.acquire(w.t1, w.lock_b, &w.site_b_first);
    assert!(matches!(
        w.request(w.t0, w.lock_a, &w.site_a_first),
        Decision::Go
    ));
}

#[test]
fn ignore_yields_mode_counts_but_proceeds() {
    let cfg = Config {
        enforce_yields: false,
        ..quiet_config()
    };
    let w = AbbaWorld::new(cfg);
    w.run_first_deadlock();
    w.rt.core().release(w.t0, w.lock_a);
    w.rt.core().release(w.t1, w.lock_b);
    w.rt.core().cancel(w.t0, w.lock_b);
    w.rt.core().cancel(w.t1, w.lock_a);
    w.rt.step_monitor();

    w.acquire(w.t1, w.lock_b, &w.site_b_first);
    // Decision is GO even though the pattern matched ...
    assert!(matches!(
        w.request(w.t0, w.lock_a, &w.site_a_first),
        Decision::Go
    ));
    // ... but the would-be yield is recorded.
    assert_eq!(w.rt.stats().yields, 1);
}

#[test]
fn instrumentation_only_mode_never_matches() {
    let cfg = Config {
        mode: RuntimeMode::InstrumentationOnly,
        ..quiet_config()
    };
    let rt = Runtime::new(cfg).unwrap();
    let t0 = rt.core().register_thread().unwrap();
    let site = rt.make_site(&[("w", "x.rs", 1)]);
    let l = rt.new_lock_id();
    assert!(matches!(
        rt.core().request(t0, l, site.frames(), site.stack()),
        Decision::Go
    ));
    rt.core().acquired(t0, l, site.stack());
    assert!(rt.core().release(t0, l).is_empty());
    // Events still flow to the monitor.
    rt.step_monitor();
    assert!(rt.stats().events_processed >= 3);
}

#[test]
fn false_positive_probe_classifies_clean_run() {
    // After an avoidance, if no lock inversion shows up, the retrospective
    // analysis must classify it as a false positive (§5.5).
    let w = AbbaWorld::new(quiet_config());
    w.run_first_deadlock();
    w.rt.core().release(w.t0, w.lock_a);
    w.rt.core().release(w.t1, w.lock_b);
    w.rt.core().cancel(w.t0, w.lock_b);
    w.rt.core().cancel(w.t1, w.lock_a);
    w.rt.step_monitor();

    // Trigger an avoidance.
    w.acquire(w.t1, w.lock_b, &w.site_b_first);
    assert!(matches!(
        w.request(w.t0, w.lock_a, &w.site_a_first),
        Decision::Yield { .. }
    ));
    // T1 releases B *without ever touching A*: no inversion.
    w.rt.core().release(w.t1, w.lock_b);
    // T0 proceeds: acquires A, releases it (probe closes).
    assert!(matches!(
        w.request(w.t0, w.lock_a, &w.site_a_first),
        Decision::Go
    ));
    w.rt.core().acquired(w.t0, w.lock_a, w.site_a_first.stack());
    w.rt.core().release(w.t0, w.lock_a);
    w.rt.step_monitor();
    w.rt.step_monitor();
    let stats = w.rt.stats();
    assert_eq!(stats.false_positives, 1, "{stats:?}");
    assert_eq!(stats.true_positives, 0);
}

#[test]
fn true_positive_probe_detects_inversion() {
    let w = AbbaWorld::new(quiet_config());
    w.run_first_deadlock();
    w.rt.core().release(w.t0, w.lock_a);
    w.rt.core().release(w.t1, w.lock_b);
    w.rt.core().cancel(w.t0, w.lock_b);
    w.rt.core().cancel(w.t1, w.lock_a);
    w.rt.step_monitor();

    // Avoidance fires: T0 yields wanting A while T1 holds B.
    w.acquire(w.t1, w.lock_b, &w.site_b_first);
    assert!(matches!(
        w.request(w.t0, w.lock_a, &w.site_a_first),
        Decision::Yield { .. }
    ));
    // T1 *does* acquire A while holding B (the deadlock would have been
    // real), then releases both.
    w.acquire(w.t1, w.lock_a, &w.site_second);
    w.rt.core().release(w.t1, w.lock_a);
    w.rt.core().release(w.t1, w.lock_b);
    // T0 proceeds: acquires A, then B (inversion partner), releases.
    assert!(matches!(
        w.request(w.t0, w.lock_a, &w.site_a_first),
        Decision::Go
    ));
    w.rt.core().acquired(w.t0, w.lock_a, w.site_a_first.stack());
    w.acquire(w.t0, w.lock_b, &w.site_second);
    w.rt.core().release(w.t0, w.lock_b);
    w.rt.core().release(w.t0, w.lock_a);
    w.rt.step_monitor();
    w.rt.step_monitor();
    let stats = w.rt.stats();
    assert_eq!(stats.true_positives, 1, "{stats:?}");
    assert_eq!(stats.false_positives, 0);
}

#[test]
fn updates_only_mode_skips_matching() {
    let cfg = Config {
        mode: RuntimeMode::UpdatesOnly,
        ..quiet_config()
    };
    let w = AbbaWorld::new(cfg);
    w.run_first_deadlock();
    w.rt.core().release(w.t0, w.lock_a);
    w.rt.core().release(w.t1, w.lock_b);
    w.rt.core().cancel(w.t0, w.lock_b);
    w.rt.core().cancel(w.t1, w.lock_a);
    w.rt.step_monitor();
    assert_eq!(w.rt.history().len(), 1, "detection still runs");

    w.acquire(w.t1, w.lock_b, &w.site_b_first);
    // Matching is skipped: GO even though the pattern would match.
    assert!(matches!(
        w.request(w.t0, w.lock_a, &w.site_a_first),
        Decision::Go
    ));
    assert_eq!(w.rt.stats().yields, 0);
}

#[test]
fn a_learned_signature_yields() {
    let w = AbbaWorld::new(quiet_config());
    w.run_first_deadlock();
    w.rt.core().release(w.t0, w.lock_a);
    w.rt.core().release(w.t1, w.lock_b);
    w.rt.core().cancel(w.t0, w.lock_b);
    w.rt.core().cancel(w.t1, w.lock_a);
    w.rt.step_monitor();

    w.acquire(w.t1, w.lock_b, &w.site_b_first);
    let d = w.request(w.t0, w.lock_a, &w.site_a_first);
    assert!(matches!(d, Decision::Yield { .. }), "got {d:?}");
}
