//! What the hooks tell the monitor, and when: an uncontended pair publishes
//! two lane entries and a contended one three; a thread blocked inside any
//! immunized lock type has its allow edge in the monitor's RAG before its
//! holder releases; and `events_processed` accounts for every counted hook
//! outcome whichever event ended up carrying it.

use dimmunix_core::{Config, Decision, LockId, LockSite, Runtime, RuntimeMode, ThreadId};
use std::cell::Cell;
use std::sync::mpsc;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Far beyond any scheduling hiccup: the timed calls must block, not expire.
const PATIENT: Duration = Duration::from_secs(60);

/// Steps the monitor and returns how many lane entries it found queued.
fn drained(rt: &Runtime) -> u64 {
    rt.step_monitor();
    rt.stats().events_last_drain
}

/// Drives one lock flavour through an uncontended and a contended pair.
/// `pair` acquires the lock with the blocking call under test, runs its
/// argument while holding it, and releases. Everything is observed first
/// and asserted once both threads are done, so a failure cannot strand the
/// waiter inside the lock.
fn check_flavour(rt: &Runtime, id: LockId, pair: &(dyn Fn(&mut dyn FnMut()) + Sync)) {
    drained(rt);
    pair(&mut || {});
    let uncontended = drained(rt);

    let main = rt
        .current_thread()
        .expect("the pair registered this thread");
    let (tid_tx, tid_rx) = mpsc::channel::<ThreadId>();
    let (step_tx, step_rx) = mpsc::channel::<()>();
    let (go_tx, go_rx) = mpsc::channel::<()>();
    // The waiter's ends of the channels, moved into it when it is spawned.
    let mut waiter_ends = Some((tid_tx, step_tx, go_rx));
    let (mut holder_granted, mut while_blocked) = (0, 0);
    let mut blocked_rag = String::new();
    let mut edges = (String::new(), String::new());
    let (after_handoff, after_release) = std::thread::scope(|s| {
        pair(&mut || {
            holder_granted = drained(rt);
            let (tid_tx, step_tx, go_rx) = waiter_ends.take().unwrap();
            s.spawn(move || {
                tid_tx.send(rt.current_thread().unwrap()).unwrap();
                pair(&mut || {
                    step_tx.send(()).unwrap(); // acquired
                    go_rx.recv().unwrap();
                });
                step_tx.send(()).unwrap(); // released
                go_rx.recv().unwrap(); // exit (a lane entry) only once counted
            });
            let waiter = tid_rx.recv().unwrap();
            // The waiter blocks inside the mutex. Before this thread
            // releases, the monitor must learn of the allow edge.
            edges = (
                format!("{waiter} -> {id} [label=\"allow\"]"),
                format!("{id} -> {main} [label=\"hold"),
            );
            let deadline = Instant::now() + Duration::from_secs(10);
            while !blocked_rag.contains(&edges.0) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
                while_blocked += drained(rt);
                blocked_rag = rt.rag_dot();
            }
        });
        step_rx.recv().unwrap();
        let after_handoff = drained(rt);
        go_tx.send(()).unwrap();
        step_rx.recv().unwrap();
        let after_release = drained(rt);
        go_tx.send(()).unwrap();
        (after_handoff, after_release)
    });

    assert_eq!(uncontended, 2, "uncontended: granted, release");
    assert_eq!(holder_granted, 1, "the holder's granted");
    let (allow, hold) = edges;
    assert!(
        blocked_rag.contains(&allow) && blocked_rag.contains(&hold),
        "no `{allow}` beside `{hold}` while the waiter was blocked:\n{blocked_rag}"
    );
    assert_eq!(while_blocked, 1, "contended: the go, before blocking");
    assert_eq!(
        after_handoff, 2,
        "the holder's release, then the waiter's acquired"
    );
    assert_eq!(after_release, 1, "contended: the release makes three");
}

#[test]
fn raw_lock_publishes_two_entries_and_its_allow_edge_before_blocking() {
    let rt = Runtime::new(Config::default()).unwrap();
    let (lock, site) = (rt.raw_lock(), rt.make_site(&[("f", "raw.rs", 1)]));
    check_flavour(&rt, lock.id(), &|held| {
        lock.lock(&site);
        held();
        lock.unlock();
    });
}

#[test]
fn raw_lock_timeout_publishes_two_entries_and_its_allow_edge_before_blocking() {
    let rt = Runtime::new(Config::default()).unwrap();
    let (lock, site) = (rt.raw_lock(), rt.make_site(&[("f", "raw.rs", 2)]));
    check_flavour(&rt, lock.id(), &|held| {
        assert!(lock.lock_timeout(&site, PATIENT));
        held();
        lock.unlock();
    });
}

#[test]
fn mutex_lock_publishes_two_entries_and_its_allow_edge_before_blocking() {
    let rt = Runtime::new(Config::default()).unwrap();
    let m = rt.mutex(());
    check_flavour(&rt, m.id(), &|held| {
        let _g = m.lock();
        held();
    });
}

#[test]
fn mutex_try_lock_for_publishes_two_entries_and_its_allow_edge_before_blocking() {
    let rt = Runtime::new(Config::default()).unwrap();
    let m = rt.mutex(());
    check_flavour(&rt, m.id(), &|held| {
        let _g = m.try_lock_for(PATIENT).expect("patient enough");
        held();
    });
}

#[test]
fn reentrant_enter_publishes_two_entries_and_its_allow_edge_before_blocking() {
    let rt = Runtime::new(Config::default()).unwrap();
    let r = rt.reentrant_lock();
    check_flavour(&rt, r.id(), &|held| {
        let _g = r.enter();
        held();
    });
}

/// Two real threads deadlock inside `lock_timeout`: both allow edges were
/// published before blocking, so the monitor thread finds the cycle while
/// they are stuck; the timeouts then resolve it.
#[test]
fn a_real_abba_through_lock_timeout_is_detected_and_archived() {
    let rt = Runtime::start(Config {
        monitor_period: Duration::from_millis(5),
        ..Config::default()
    })
    .unwrap();
    let (a, b) = (rt.raw_lock(), rt.raw_lock());
    let outer = [
        rt.make_site(&[("t0", "abba.rs", 1)]),
        rt.make_site(&[("t1", "abba.rs", 2)]),
    ];
    let inner = rt.make_site(&[("inner", "abba.rs", 3)]);
    let both_hold = Barrier::new(2);
    let got: Vec<bool> = std::thread::scope(|s| {
        let threads: Vec<_> = [(&a, &b, &outer[0]), (&b, &a, &outer[1])]
            .into_iter()
            .map(|(mine, theirs, site)| {
                let (inner, both_hold) = (&inner, &both_hold);
                s.spawn(move || {
                    mine.lock(site);
                    both_hold.wait();
                    let got = theirs.lock_timeout(inner, Duration::from_millis(1500));
                    if got {
                        theirs.unlock();
                    }
                    mine.unlock();
                    got
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    rt.shutdown();
    assert!(
        got.contains(&false),
        "a deadlock ends by a timeout: {got:?}"
    );
    let stats = rt.stats();
    assert!(stats.deadlocks_detected >= 1, "{stats:?}");
    assert_eq!(rt.history().len(), 1, "{stats:?}");
}

/// A hand-driven world for the outcome identity: every path a request can
/// take, with the cancels and thread exits the script performed (they have
/// no counter of their own).
struct Script {
    rt: Runtime,
    t0: ThreadId,
    t1: ThreadId,
    a: LockId,
    b: LockId,
    /// Members of the seeded signature.
    sa: LockSite,
    sb: LockSite,
    /// Matches nothing.
    other: LockSite,
    cancels: Cell<u64>,
    exits: Cell<u64>,
}

impl Script {
    fn new(config: Config) -> Self {
        let rt = Runtime::new(config).unwrap();
        Self {
            t0: rt.core().register_thread().unwrap(),
            t1: rt.core().register_thread().unwrap(),
            a: rt.new_lock_id(),
            b: rt.new_lock_id(),
            sa: rt.make_site(&[("main", "id.rs", 1), ("update", "id.rs", 3)]),
            sb: rt.make_site(&[("main", "id.rs", 2), ("update", "id.rs", 3)]),
            other: rt.make_site(&[("elsewhere", "id.rs", 9)]),
            rt,
            cancels: Cell::new(0),
            exits: Cell::new(0),
        }
    }

    fn request(&self, t: ThreadId, l: LockId, site: &LockSite) -> Decision {
        self.rt.core().request(t, l, site.frames(), site.stack())
    }

    fn go(&self, t: ThreadId, l: LockId, site: &LockSite) {
        let d = self.request(t, l, site);
        assert!(matches!(d, Decision::Go), "{d:?}");
    }

    fn acquire(&self, t: ThreadId, l: LockId, site: &LockSite) {
        self.go(t, l, site);
        self.rt.core().acquired(t, l, site.stack());
    }

    fn cancel(&self, t: ThreadId, l: LockId) {
        self.rt.core().cancel(t, l);
        self.cancels.set(self.cancels.get() + 1);
    }

    fn exit(&self, t: ThreadId) {
        self.rt.core().unregister_thread(t);
        self.exits.set(self.exits.get() + 1);
    }

    /// GO → acquire, GO → wait → acquire, GO → failed `try_lock` → cancel:
    /// the paths every mode has.
    fn unmatched_paths(&self) {
        let core = self.rt.core();
        let (t0, a, other) = (self.t0, self.a, &self.other);
        self.acquire(t0, a, other);
        core.release(t0, a);
        self.assert_identity("go, acquire");

        self.go(t0, a, other);
        core.waiting(t0, a, other.stack());
        core.acquired(t0, a, other.stack());
        core.release(t0, a);
        self.assert_identity("go, wait, acquire");

        self.go(t0, a, other);
        self.cancel(t0, a);
        self.assert_identity("go, failed try_lock, cancel");
    }

    /// Archives {sa, sb} by a hand-driven deadlock, then recovers.
    fn seed(&self) {
        let (t0, t1, a, b) = (self.t0, self.t1, self.a, self.b);
        self.acquire(t0, a, &self.sa);
        self.acquire(t1, b, &self.sb);
        for (t, l) in [(t0, b), (t1, a)] {
            self.go(t, l, &self.other);
            self.rt.core().waiting(t, l, self.other.stack());
        }
        self.rt.step_monitor();
        assert_eq!(self.rt.history().len(), 1);
        self.rt.core().release(t0, a);
        self.rt.core().release(t1, b);
        self.cancel(t0, b);
        self.cancel(t1, a);
        self.assert_identity("deadlock, recovery");
    }

    /// The quiescent identity of `Stats::events_processed`.
    fn assert_identity(&self, after: &str) {
        self.rt.step_monitor();
        let s = self.rt.stats();
        let (cancels, exits) = (self.cancels.get(), self.exits.get());
        assert_eq!(
            s.events_processed,
            s.requests + s.gos + s.yields + s.acquisitions + s.releases + cancels + exits,
            "after {after}: {cancels} cancels, {exits} exits, {s:?}",
        );
    }
}

#[test]
fn every_hook_outcome_is_retired_exactly_once() {
    let w = Script::new(Config {
        max_yield_duration: None,
        ..Config::default()
    });
    w.unmatched_paths();
    w.seed();
    let (t0, t1, a, b) = (w.t0, w.t1, w.a, w.b);
    let (sa, sb, other) = (&w.sa, &w.sb, &w.other);
    let core = w.rt.core();
    let yields = |t, l, site: &LockSite| {
        let d = core.request(t, l, site.frames(), site.stack());
        assert!(matches!(d, Decision::Yield { .. }), "{d:?}");
    };

    // Yield → wake → GO.
    w.acquire(t1, b, sb);
    yields(t0, a, sa);
    assert_eq!(core.release(t1, b), vec![t0]);
    w.acquire(t0, a, sa);
    core.release(t0, a);
    w.assert_identity("yield, wake, go");

    // Yield → `force_go` after the yield timed out, lock free.
    w.acquire(t1, b, sb);
    yields(t0, a, sa);
    core.force_go(t0, a, sa.frames(), sa.stack());
    core.acquired(t0, a, sa.stack());
    core.release(t0, a);
    w.assert_identity("yield, timeout, force_go");

    // Yield → `force_go` after the monitor broke it, lock taken.
    yields(t0, a, sa);
    assert!(core.break_yield(t0));
    assert!(core.take_broken(t0));
    core.force_go(t0, a, sa.frames(), sa.stack());
    core.waiting(t0, a, sa.stack());
    core.acquired(t0, a, sa.stack());
    core.release(t0, a);
    w.assert_identity("yield, broken, force_go, wait");

    // A yield a `try_lock` rolls back.
    yields(t0, a, sa);
    w.cancel(t0, a);
    core.release(t1, b);
    w.assert_identity("yield, cancel");

    // A second request while a grant is unpublished, a release while one
    // is, and a thread that exits with one.
    w.go(t0, a, other);
    w.acquire(t0, b, other);
    w.go(t0, a, other);
    core.release(t0, b);
    w.cancel(t0, a);
    w.go(t1, a, other);
    w.exit(t1);
    w.assert_identity("stale grants, exit");
}

#[test]
fn instrumentation_only_retires_every_outcome_too() {
    let w = Script::new(Config {
        mode: RuntimeMode::InstrumentationOnly,
        ..Config::default()
    });
    w.unmatched_paths();
    w.go(w.t1, w.a, &w.other);
    w.exit(w.t1);
    w.assert_identity("exit with a grant");
}

#[test]
fn an_unenforced_yield_retires_its_request_with_the_yield() {
    let w = Script::new(Config {
        enforce_yields: false,
        ..Config::default()
    });
    w.unmatched_paths();
    w.seed();
    let (t0, t1, a, b) = (w.t0, w.t1, w.a, w.b);
    w.acquire(t1, b, &w.sb);
    // Counted as a yield, answered with a GO.
    w.acquire(t0, a, &w.sa);
    assert_eq!(w.rt.stats().yields, 1);
    w.rt.core().release(t0, a);
    w.assert_identity("would-be yield, acquire");

    w.go(t0, a, &w.sa);
    w.rt.core().waiting(t0, a, w.sa.stack());
    w.rt.core().acquired(t0, a, w.sa.stack());
    w.rt.core().release(t0, a);
    w.rt.core().release(t1, b);
    assert_eq!(w.rt.stats().yields, 2);
    w.assert_identity("would-be yield, wait, acquire");
}
