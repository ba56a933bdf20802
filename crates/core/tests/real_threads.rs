//! End-to-end tests with real OS threads, real parking, and the spawned
//! monitor: the immunized lock types must keep a deadlock-prone program
//! live once the signature is known.

use dimmunix_core::config::MAX_THREADS;
use dimmunix_core::{frame, Config, CycleKind, Decision, LockId, Runtime};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

fn quiet_config() -> Config {
    Config::default()
}

fn tmp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("dimmunix-core-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.dlk", std::process::id()))
}

/// Runs `body` on its own thread and fails the test if it is still running
/// after 60 s: a thread left blocked inside a mutex shows as a hang, which
/// must not hang the suite.
fn watchdogged(body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(60)) {
        Ok(()) => runner.join().unwrap(),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().unwrap_err())
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("watchdog: a thread never got its lock"),
    }
}

/// Steps the monitor until its RAG shows `n` threads blocked inside lock
/// `id` (one allow edge each, published by `waiting` before the blocking
/// call) or ten seconds pass; returns whether it saw them.
fn sees_blocked(rt: &Runtime, id: LockId, n: usize) -> bool {
    let allow = format!(" -> {id} [label=\"allow\"]");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        rt.step_monitor();
        if rt.rag_dot().matches(&allow).count() >= n {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Seeds the ABBA signature into a runtime by replaying the deadlock at the
/// hook level (fast and deterministic), mimicking "the first occurrence".
fn seed_abba_signature(rt: &Runtime) {
    let t0 = rt.core().register_thread().unwrap();
    let t1 = rt.core().register_thread().unwrap();
    let a = rt.new_lock_id();
    let b = rt.new_lock_id();
    // The stacks the RAII path will produce: frame "update" + the lock call
    // site inside `transfer` below. We synthesize equivalent 2-frame stacks
    // with matching *suffixes* at depth 1 so the real run matches at the
    // depth we configure.
    let sa = rt.make_site(&[("update", "real_threads.rs", 1), ("<lock>", "seed.rs", 1)]);
    let sb = rt.make_site(&[("update", "real_threads.rs", 2), ("<lock>", "seed.rs", 2)]);
    rt.core().request(t0, a, sa.frames(), sa.stack());
    rt.core().acquired(t0, a, sa.stack());
    rt.core().request(t1, b, sb.frames(), sb.stack());
    rt.core().acquired(t1, b, sb.stack());
    // Both are granted the other's lock and block on it.
    rt.core().request(t0, b, sb.frames(), sb.stack());
    rt.core().waiting(t0, b, sb.stack());
    rt.core().request(t1, a, sa.frames(), sa.stack());
    rt.core().waiting(t1, a, sa.stack());
    rt.step_monitor();
    assert_eq!(rt.history().len(), 1);
    rt.core().release(t0, a);
    rt.core().release(t1, b);
    rt.core().cancel(t0, b);
    rt.core().cancel(t1, a);
    rt.step_monitor();
}

#[test]
fn immunized_mutex_basic_mutual_exclusion() {
    let rt = Runtime::new(quiet_config()).unwrap();
    let counter = Arc::new(rt.mutex(0_u64));
    let mut handles = Vec::new();
    for _ in 0..8 {
        let c = Arc::clone(&counter);
        handles.push(std::thread::spawn(move || {
            for _ in 0..1000 {
                *c.lock() += 1;
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(*counter.lock(), 8000);
    assert!(rt.stats().acquisitions >= 8000);
}

#[test]
fn try_lock_fails_on_contention_and_cancels() {
    let rt = Runtime::new(quiet_config()).unwrap();
    let m = Arc::new(rt.mutex(()));
    let g = m.lock();
    let m2 = Arc::clone(&m);
    let other = std::thread::spawn(move || m2.try_lock().is_none());
    assert!(other.join().unwrap(), "try_lock must fail while held");
    drop(g);
    assert!(m.try_lock().is_some());
}

#[test]
fn try_lock_for_times_out_then_succeeds() {
    let rt = Runtime::new(quiet_config()).unwrap();
    let m = Arc::new(rt.mutex(()));
    let g = m.lock();
    let m2 = Arc::clone(&m);
    let other = std::thread::spawn(move || m2.try_lock_for(Duration::from_millis(50)).is_none());
    assert!(other.join().unwrap());
    drop(g);
    assert!(m.try_lock_for(Duration::from_millis(50)).is_some());
}

/// A timeout too long to add to `Instant::now()` (which used to panic) is no
/// deadline: on a free lock the call succeeds, on a taken one it blocks —
/// through `waiting`, so the monitor sees it — until the holder releases.
#[test]
fn raw_lock_timeout_of_duration_max_is_no_deadline() {
    watchdogged(|| {
        let rt = Runtime::new(quiet_config()).unwrap();
        let site = rt.make_site(&[("f", "max.rs", 1)]);
        let lock = Arc::new(rt.raw_lock());
        assert!(lock.lock_timeout(&site, Duration::MAX));
        let returned = Arc::new(AtomicBool::new(false));
        let waiter = {
            let (lock, site, returned) = (Arc::clone(&lock), site.clone(), Arc::clone(&returned));
            std::thread::spawn(move || {
                let got = lock.lock_timeout(&site, Duration::MAX);
                returned.store(true, Ordering::SeqCst);
                if got {
                    lock.unlock();
                }
                got
            })
        };
        let blocked = sees_blocked(&rt, lock.id(), 1) && !returned.load(Ordering::SeqCst);
        lock.unlock();
        assert!(waiter.join().unwrap(), "acquired once released");
        assert!(blocked, "the waiter must block while the lock is held");
    });
}

/// A max-yield bound too long to add to `Instant::now()` (which used to
/// panic in the park) is no bound: Y yields on H's hold of `l0` under
/// `max_yield_duration: Some(Duration::MAX)`, parks, and is woken by H's
/// release.
#[test]
fn a_yield_under_a_max_yield_duration_of_duration_max_is_woken_by_its_cause() {
    watchdogged(|| {
        let rt = Runtime::new(Config {
            max_yield_duration: Some(Duration::MAX),
            ..quiet_config()
        })
        .unwrap();
        let site_a = rt.make_site(&[("m", "forever.rs", 1), ("u", "forever.rs", 3)]);
        let site_b = rt.make_site(&[("m", "forever.rs", 2), ("u", "forever.rs", 3)]);
        rt.history()
            .add(CycleKind::Deadlock, vec![site_a.stack(), site_b.stack()], 4)
            .unwrap();
        let (l0, l1) = (rt.raw_lock(), rt.raw_lock());
        l0.lock(&site_a);
        let (rt, l1, site_b) = (&rt, &l1, &site_b);
        std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel();
            let y = s.spawn(move || {
                tx.send(rt.current_thread().unwrap()).unwrap();
                l1.lock(site_b);
                l1.unlock();
            });
            let y_id = rx.recv().unwrap();
            while !rt.core().is_yielding(y_id) && !y.is_finished() {
                std::thread::sleep(Duration::from_millis(1));
            }
            l0.unlock();
            y.join().expect("Y parks with no deadline and completes");
        });
        let stats = rt.stats();
        assert!(stats.yields >= 1, "Y never yielded on H: {stats:?}");
        assert_eq!(stats.yield_aborts, 0, "{stats:?}");
    });
}

#[test]
fn mutex_try_lock_for_duration_max_is_no_deadline() {
    watchdogged(|| {
        let rt = Runtime::new(quiet_config()).unwrap();
        let m = Arc::new(rt.mutex(0_u32));
        let held = m.try_lock_for(Duration::MAX).expect("free");
        let returned = Arc::new(AtomicBool::new(false));
        let waiter = {
            let (m, returned) = (Arc::clone(&m), Arc::clone(&returned));
            std::thread::spawn(move || {
                let got = m.try_lock_for(Duration::MAX).map(|mut g| *g += 1);
                returned.store(true, Ordering::SeqCst);
                got.is_some()
            })
        };
        let blocked = sees_blocked(&rt, m.id(), 1) && !returned.load(Ordering::SeqCst);
        drop(held);
        assert!(waiter.join().unwrap(), "acquired once released");
        assert!(blocked, "the waiter must block while the lock is held");
        assert_eq!(*m.lock(), 1);
    });
}

/// Four threads hammer one lock of each type, so `acquire`'s `try_lock`
/// fails for real and the `waiting` → blocking `raw.lock()` path runs, as
/// does the contended unlock that has someone to wake. The main thread first
/// holds each lock until the monitor sees all four workers blocked inside it
/// (no run of this test gets by on luckily uncontended pairs), then lets them
/// race. The load-then-store counters are exact only under mutual exclusion,
/// and once the monitor has shut down every hook outcome has been retired.
#[test]
fn four_threads_contending_on_one_lock_of_each_type_stay_exact() {
    const THREADS: usize = 4;
    const ROUNDS: u64 = 2_000;
    watchdogged(|| {
        let rt = Runtime::start(Config {
            monitor_period: Duration::from_millis(2),
            ..quiet_config()
        })
        .unwrap();
        let site = rt.make_site(&[("worker", "contend.rs", 1)]);
        let (raw, mutex, monitor) = (rt.raw_lock(), rt.mutex(0_u64), rt.reentrant_lock());
        let (under_raw, under_monitor) = (AtomicU64::new(0), AtomicU64::new(0));
        let bump = |c: &AtomicU64| c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        // Workers stay alive (a thread's exit is an event of its own) until
        // the identity below has been read.
        let (done, exit) = (Barrier::new(THREADS + 1), Barrier::new(THREADS + 1));

        raw.lock(&site);
        let mutex_held = mutex.lock();
        let monitor_held = monitor.enter();
        let (blocked, stats) = std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..ROUNDS {
                        raw.lock(&site);
                        bump(&under_raw);
                        raw.unlock();
                        *mutex.lock() += 1;
                        let _outer = monitor.enter();
                        let _inner = monitor.enter();
                        bump(&under_monitor);
                    }
                    done.wait();
                    exit.wait();
                });
            }
            // Observed here, asserted after the scope: a failed assertion
            // must not strand the workers inside a lock this thread holds.
            let on_raw = sees_blocked(&rt, raw.id(), THREADS);
            raw.unlock();
            let on_mutex = sees_blocked(&rt, mutex.id(), THREADS);
            drop(mutex_held);
            let on_monitor = sees_blocked(&rt, monitor.id(), THREADS);
            drop(monitor_held);
            done.wait();
            rt.shutdown();
            let stats = rt.stats();
            exit.wait();
            ([on_raw, on_mutex, on_monitor], stats)
        });

        assert_eq!(blocked, [true; 3], "all four blocked in each lock type");
        let total = THREADS as u64 * ROUNDS;
        assert_eq!(under_raw.load(Ordering::Relaxed), total);
        assert_eq!(mutex.into_inner(), total);
        assert_eq!(under_monitor.load(Ordering::Relaxed), total);
        assert_eq!(
            stats.events_processed,
            stats.requests + stats.gos + stats.yields + stats.acquisitions + stats.releases,
            "{stats:?}"
        );
        assert!(stats.acquisitions >= 4 * total, "{stats:?}");
    });
}

#[test]
fn reentrant_lock_nests() {
    let rt = Runtime::new(quiet_config()).unwrap();
    let lock = rt.reentrant_lock();
    let g1 = lock.enter();
    let g2 = lock.enter();
    let g3 = lock.enter();
    assert_eq!(lock.nesting(), 3);
    drop(g3);
    drop(g2);
    assert_eq!(lock.nesting(), 1);
    drop(g1);
    assert_eq!(lock.nesting(), 0);
}

#[test]
fn reentrant_lock_excludes_other_threads() {
    let rt = Runtime::new(quiet_config()).unwrap();
    let lock = Arc::new(rt.reentrant_lock());
    let hits = Arc::new(AtomicUsize::new(0));
    let g = lock.enter();
    let l2 = Arc::clone(&lock);
    let h2 = Arc::clone(&hits);
    let handle = std::thread::spawn(move || {
        let _g = l2.enter();
        h2.fetch_add(1, Ordering::SeqCst);
    });
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(hits.load(Ordering::SeqCst), 0, "other thread must block");
    drop(g);
    handle.join().unwrap();
    assert_eq!(hits.load(Ordering::SeqCst), 1);
}

/// Locks `first` then `second` under a "transfer" frame — the paper's
/// `update(x, y)`. The second acquisition is timed so an actual deadlock
/// resolves itself after capture. Returns whether both locks were obtained.
fn transfer(
    first: &dimmunix_core::ImmunizedMutex<u32>,
    second: &dimmunix_core::ImmunizedMutex<u32>,
    hold: Duration,
) -> bool {
    frame!("transfer");
    let g1 = first.lock();
    std::thread::sleep(hold);
    let got = second.try_lock_for(Duration::from_millis(700)).is_some();
    drop(g1);
    got
}

/// Two threads `transfer` over `a`/`b` in opposite orders, the second one
/// `stagger` late, while this thread drives the monitor. Each thread first
/// makes the same two calls on locks of its own, so the contended
/// acquisitions come from contexts its tree has already seen. Returns how
/// many of the two contended transfers obtained both locks.
fn run_transfer_pair(
    rt: &Runtime,
    a: &Arc<dimmunix_core::ImmunizedMutex<u32>>,
    b: &Arc<dimmunix_core::ImmunizedMutex<u32>>,
    hold: Duration,
    stagger: Duration,
) -> usize {
    let done = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for swap in [false, true] {
        let (a, b) = (Arc::clone(a), Arc::clone(b));
        let done = Arc::clone(&done);
        let rt = rt.clone();
        let delay = if swap { stagger } else { Duration::ZERO };
        handles.push(std::thread::spawn(move || {
            assert!(transfer(&rt.mutex(0), &rt.mutex(0), Duration::ZERO));
            std::thread::sleep(delay);
            let full = if swap {
                transfer(&b, &a, hold)
            } else {
                transfer(&a, &b, hold)
            };
            if full {
                done.fetch_add(1, Ordering::SeqCst);
            }
        }));
    }
    // Drive the monitor while the threads run.
    for _ in 0..400 {
        rt.step_monitor();
        if handles.iter().all(|h| h.is_finished()) {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    for h in handles {
        h.join().unwrap();
    }
    done.load(Ordering::SeqCst)
}

/// The paper's §4 scenario end-to-end with real threads and real stacks:
/// the program *experiences* the ABBA deadlock once (a timed second
/// acquisition keeps the test from hanging while the monitor captures the
/// cycle), and from then on the deadlock-prone interleaving completes
/// because the second thread yields at its first acquisition.
#[test]
fn abba_learns_live_then_avoids_with_yield() {
    let rt = Runtime::new(quiet_config()).unwrap();
    let a = Arc::new(rt.mutex(0_u32));
    let b = Arc::new(rt.mutex(0_u32));
    let (hold, stagger) = (Duration::from_millis(200), Duration::from_millis(30));

    // Occurrence run: both threads reach the both-hold window (long hold,
    // short stagger) — the deadlock manifests and is captured; the timed
    // locks then fail and unwind.
    let full = run_transfer_pair(&rt, &a, &b, hold, stagger);
    assert!(full < 2, "the first run must hit the deadlock window");
    assert!(
        rt.stats().deadlocks_detected >= 1,
        "monitor captured the cycle: {:?}",
        rt.stats()
    );
    assert_eq!(rt.history().len(), 1);

    // Immunized run: same timing, same code — now the staggered thread
    // yields at its first acquisition and both transfers complete.
    let yields_before = rt.stats().yields;
    let full = run_transfer_pair(&rt, &a, &b, hold, stagger);
    assert_eq!(full, 2, "both transfers must complete: {:?}", rt.stats());
    assert!(
        rt.stats().yields > yields_before,
        "avoidance must have steered the schedule: {:?}",
        rt.stats()
    );
}

/// The same scenario across a restart. The stacks in the signature come out
/// of the threads' calling-context trees (the contended acquisitions are
/// tree hits); saved as strings and loaded into a fresh runtime's tables,
/// they must equal what the trees of that runtime's threads produce, or the
/// second execution deadlocks again.
#[test]
fn signature_from_cached_captures_immunizes_the_next_execution() {
    let path = tmp_path("cached-capture");
    std::fs::remove_file(&path).ok();
    let cfg = || Config {
        history_path: Some(path.clone()),
        ..quiet_config()
    };
    let (hold, stagger) = (Duration::from_millis(200), Duration::from_millis(30));
    {
        let rt = Runtime::new(cfg()).unwrap();
        let (a, b) = (Arc::new(rt.mutex(0_u32)), Arc::new(rt.mutex(0_u32)));
        let full = run_transfer_pair(&rt, &a, &b, hold, stagger);
        assert!(full < 2, "the first execution must hit the deadlock window");
        let stats = rt.stats();
        assert_eq!(rt.history().len(), 1, "{stats:?}");
        // Two threads, two lock call sites each: the warm-up calls missed,
        // the contended ones did not.
        assert_eq!(stats.capture_misses, 4, "{stats:?}");
        assert!(stats.requests >= 8, "{stats:?}");
        rt.save_history().unwrap();
    }
    let rt = Runtime::new(cfg()).unwrap();
    assert_eq!(rt.history().len(), 1, "immune memory survived restart");
    let (a, b) = (Arc::new(rt.mutex(0_u32)), Arc::new(rt.mutex(0_u32)));
    let full = run_transfer_pair(&rt, &a, &b, hold, stagger);
    let stats = rt.stats();
    assert_eq!(full, 2, "both transfers must complete: {stats:?}");
    assert!(
        stats.yields >= 1 && stats.deadlocks_detected == 0,
        "{stats:?}"
    );
    drop(rt);
    std::fs::remove_file(&path).ok();
}

#[test]
fn yield_timeout_aborts_and_can_disable_signature() {
    // A signature matching the *only* path through a function would starve
    // it; the max-yield bound must release the thread (§5.7).
    let cfg = Config {
        max_yield_duration: Some(Duration::from_millis(30)),
        abort_disable_threshold: Some(1),
        ..quiet_config()
    };
    let rt = Runtime::new(cfg).unwrap();
    let t0 = rt.core().register_thread().unwrap();
    let site_sa = rt.make_site(&[("m", "x.rs", 1), ("u", "x.rs", 3)]);
    let site_sb = rt.make_site(&[("m", "x.rs", 2), ("u", "x.rs", 3)]);
    // Signature {SA, SB}.
    rt.history()
        .add(
            dimmunix_core::CycleKind::Deadlock,
            vec![site_sa.stack(), site_sb.stack()],
            4,
        )
        .unwrap();
    rt.history().touch();

    // T0 holds A with SA and never releases.
    let a = rt.new_lock_id();
    rt.core().request(t0, a, site_sa.frames(), site_sa.stack());
    rt.core().acquired(t0, a, site_sa.stack());

    // A real thread now locks a RawLock with SB: it must yield, time out,
    // abort, and proceed.
    let lock_b = Arc::new(rt.raw_lock());
    let rt2 = rt.clone();
    let sb = site_sb.clone();
    let lb = Arc::clone(&lock_b);
    let h = std::thread::spawn(move || {
        lb.lock(&sb);
        lb.unlock();
    });
    h.join().unwrap();
    let stats = rt.stats();
    assert!(stats.yields >= 1, "{stats:?}");
    assert_eq!(stats.yield_aborts, 1, "{stats:?}");
    // Threshold 1 ⇒ the signature is now disabled.
    assert!(rt2.history().snapshot()[0].is_disabled());
}

#[test]
fn parked_yield_storm_wakes_every_waiter_on_release() {
    // Canary for the sharded wake protocol under real OS threads: several
    // waiters PARK on yields against the same cause `(holder, A)`, and the
    // holder's single unlock must wake every one of them. With no yield
    // timeout, a lost wakeup (e.g. a release slipping between the cover
    // decision and the wake-shard registration) parks a waiter forever —
    // the watchdog below turns that hang into a failure. The lockstep
    // differential tests cannot catch this class: it only exists under
    // true parallelism.
    let cfg = Config {
        max_yield_duration: None,
        ..quiet_config()
    };
    let rt = Runtime::new(cfg).unwrap();
    let site_sa = rt.make_site(&[("m", "x.rs", 1), ("u", "x.rs", 3)]);
    let site_sb = rt.make_site(&[("m", "x.rs", 2), ("u", "x.rs", 3)]);
    rt.history()
        .add(
            dimmunix_core::CycleKind::Deadlock,
            vec![site_sa.stack(), site_sb.stack()],
            4,
        )
        .unwrap();
    rt.history().touch();

    const WAITERS: usize = 4;
    let lock_a = Arc::new(rt.raw_lock());
    let ready = Arc::new(Barrier::new(WAITERS + 1));
    let mut handles = Vec::new();
    // Holder: takes A through SA (bucketing the cover's member entry),
    // waits until every waiter has yielded, then unlocks — the unlock
    // delivers the wakeups through the runtime.
    {
        let rt = rt.clone();
        let la = Arc::clone(&lock_a);
        let sa = site_sa.clone();
        let ready = Arc::clone(&ready);
        handles.push(std::thread::spawn(move || {
            la.lock(&sa);
            ready.wait();
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while rt.stats().yields < WAITERS as u64 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "waiters never yielded: {:?}",
                    rt.stats()
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            la.unlock();
        }));
    }
    // Waiters: each locks its own (free) lock through SB — the cover over
    // the holder's SA entry forces a YIELD, and they park on it.
    for _ in 0..WAITERS {
        let rt = rt.clone();
        let sb = site_sb.clone();
        let ready = Arc::clone(&ready);
        handles.push(std::thread::spawn(move || {
            let lock = rt.raw_lock();
            ready.wait();
            lock.lock(&sb);
            lock.unlock();
        }));
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    for h in handles {
        while !h.is_finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "lost wakeup: a parked yielder never woke: {:?}",
                rt.stats()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        h.join().unwrap();
    }
    let stats = rt.stats();
    assert!(stats.yields >= WAITERS as u64, "{stats:?}");
    assert_eq!(stats.yield_aborts, 0, "{stats:?}");
}

/// A cause that gives up its grant wakes the thread yielding on it. H holds
/// `l0`; C asks for `l0` through `site_a` with a 300 ms timeout, is granted,
/// and blocks; Y locks `l1` through `site_b`, the signature's other member,
/// and yields on the cause `(C, l0)`. C's timeout cancels its grant, and the
/// cancel must wake Y, whose retry then finds no cover. Without that wake Y
/// stays parked for the whole 3 s yield bound and aborts.
#[test]
fn a_cancelled_cause_wakes_its_yielder() {
    watchdogged(|| {
        let rt = Runtime::new(Config {
            max_yield_duration: Some(Duration::from_secs(3)),
            ..quiet_config()
        })
        .unwrap();
        let site_a = rt.make_site(&[("m", "cancel.rs", 1), ("u", "cancel.rs", 3)]);
        let site_b = rt.make_site(&[("m", "cancel.rs", 2), ("u", "cancel.rs", 3)]);
        let site_h = rt.make_site(&[("holder", "cancel.rs", 9)]);
        rt.history()
            .add(
                dimmunix_core::CycleKind::Deadlock,
                vec![site_a.stack(), site_b.stack()],
                4,
            )
            .unwrap();
        rt.history().touch();
        let (l0, l1) = (rt.raw_lock(), rt.raw_lock());
        l0.lock(&site_h);
        let y_done = Barrier::new(2);
        let (cancelled, waited) = std::thread::scope(|s| {
            let c = s.spawn(|| {
                let cancelled = !l0.lock_timeout(&site_a, Duration::from_millis(300));
                // C stays alive until Y is done: its exit sweep would wake Y
                // as an orphan.
                y_done.wait();
                cancelled
            });
            assert!(sees_blocked(&rt, l0.id(), 1), "C never blocked on l0");
            let y = s.spawn(|| {
                let start = Instant::now();
                l1.lock(&site_b);
                l1.unlock();
                start.elapsed()
            });
            let waited = y.join().unwrap();
            y_done.wait();
            (c.join().unwrap(), waited)
        });
        l0.unlock();
        let stats = rt.stats();
        assert!(cancelled, "C's timed lock must time out while H holds l0");
        assert!(stats.yields >= 1, "Y never yielded on C: {stats:?}");
        assert_eq!(stats.yield_aborts, 0, "{stats:?}");
        assert_eq!(stats.orphan_wakes, 0, "{stats:?}");
        assert!(
            waited < Duration::from_secs(1),
            "Y waited {waited:?} for its lock: {stats:?}"
        );
    });
}

#[test]
fn hot_cause_storm_delivers_every_wave_of_wakeups() {
    // Storm variant of the parked-yield canary for the wake path: one
    // holder thread *churns* lock A through SA (insert/remove on the hot
    // member bucket, one take of its waiters per release) while waiters
    // repeatedly lock their own locks through SB — every yield registers
    // against the same hot cause `(holder, A)` under the holder's slot
    // mutex. With no yield timeout, any lost wakeup (a take missing a
    // registration, a withdrawal dropping another yielder's, a registration
    // accepted after the entry left) parks a waiter forever; the watchdog
    // turns that hang into a failure. Repeated rounds also exercise refused
    // registrations: the holder's entry appears and disappears under the
    // waiters' optimistic cover searches.
    let cfg = Config {
        max_yield_duration: None,
        ..quiet_config()
    };
    let rt = Runtime::new(cfg).unwrap();
    let site_sa = rt.make_site(&[("m", "x.rs", 1), ("u", "x.rs", 3)]);
    let site_sb = rt.make_site(&[("m", "x.rs", 2), ("u", "x.rs", 3)]);
    rt.history()
        .add(
            dimmunix_core::CycleKind::Deadlock,
            vec![site_sa.stack(), site_sb.stack()],
            4,
        )
        .unwrap();
    rt.history().touch();

    const WAITERS: usize = 4;
    /// The storm runs until this many yields have been parked and woken.
    const YIELD_QUOTA: u64 = 50;
    let lock_a = Arc::new(rt.raw_lock());
    let done = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    // Holder: cycles A — holding it briefly each time so waiters' requests
    // overlap a bucketed entry and must yield — until every waiter is
    // done. Each release takes its waiters, so any parked waiter is
    // woken by the next cycle.
    {
        let la = Arc::clone(&lock_a);
        let sa = site_sa.clone();
        let done = Arc::clone(&done);
        handles.push(std::thread::spawn(move || {
            while done.load(Ordering::SeqCst) < WAITERS {
                la.lock(&sa);
                std::thread::sleep(Duration::from_millis(1));
                la.unlock();
                std::thread::yield_now();
            }
        }));
    }
    // Waiters: hammer their own locks through SB until the storm has
    // produced enough parked-and-woken yields.
    for _ in 0..WAITERS {
        let rt = rt.clone();
        let sb = site_sb.clone();
        let done = Arc::clone(&done);
        handles.push(std::thread::spawn(move || {
            let lock = rt.raw_lock();
            while rt.stats().yields < YIELD_QUOTA {
                lock.lock(&sb);
                lock.unlock();
            }
            done.fetch_add(1, Ordering::SeqCst);
        }));
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    for h in handles {
        while !h.is_finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "lost wakeup under the hot-cause storm: {:?}",
                rt.stats()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        h.join().unwrap();
    }
    let stats = rt.stats();
    assert_eq!(stats.yield_aborts, 0, "{stats:?}");
    // The storm must actually have exercised the contended path: the
    // waiter loops only terminate once the global yields counter reaches
    // YIELD_QUOTA, and every one of those yields parked against the
    // holder, so its releases must have drained wake registrations. A
    // zero here means the workload regressed into never yielding.
    assert!(
        stats.yields >= YIELD_QUOTA && stats.wake_drains > 0,
        "storm never hit the yield/wake path: {stats:?}"
    );
}

#[test]
fn history_persists_across_runtimes() {
    let path = tmp_path("persist");
    std::fs::remove_file(&path).ok();
    {
        let cfg = Config {
            history_path: Some(path.clone()),
            ..quiet_config()
        };
        let rt = Runtime::new(cfg).unwrap();
        seed_abba_signature(&rt);
        rt.save_history().unwrap();
    }
    // Second "execution" of the program.
    let cfg = Config {
        history_path: Some(path.clone()),
        ..quiet_config()
    };
    let rt = Runtime::new(cfg).unwrap();
    assert_eq!(rt.history().len(), 1, "immune memory survived restart");
    std::fs::remove_file(&path).ok();
}

#[test]
fn vaccination_grants_immunity_without_encountering_deadlock() {
    // Vendor machine: experiences the deadlock, ships the signature file.
    let vaccine = tmp_path("vaccine");
    std::fs::remove_file(&vaccine).ok();
    {
        let cfg = Config {
            history_path: Some(vaccine.clone()),
            ..quiet_config()
        };
        let rt = Runtime::new(cfg).unwrap();
        seed_abba_signature(&rt);
        rt.save_history().unwrap();
    }
    // User machine: never deadlocked, gets vaccinated at runtime.
    let rt = Runtime::new(quiet_config()).unwrap();
    assert!(rt.history().is_empty());
    let added = rt.vaccinate(&vaccine).unwrap();
    assert_eq!(added, 1);
    assert_eq!(rt.history().len(), 1);

    // The vaccinated pattern is now avoided: replay the conflict.
    let t0 = rt.core().register_thread().unwrap();
    let t1 = rt.core().register_thread().unwrap();
    let a = rt.new_lock_id();
    let b = rt.new_lock_id();
    let sa = rt.make_site(&[("update", "real_threads.rs", 1), ("<lock>", "seed.rs", 1)]);
    let sb = rt.make_site(&[("update", "real_threads.rs", 2), ("<lock>", "seed.rs", 2)]);
    rt.core().request(t1, b, sb.frames(), sb.stack());
    rt.core().acquired(t1, b, sb.stack());
    let d = rt.core().request(t0, a, sa.frames(), sa.stack());
    assert!(matches!(d, Decision::Yield { .. }), "got {d:?}");
    std::fs::remove_file(&vaccine).ok();
}

#[test]
fn spawned_monitor_detects_in_background() {
    let rt = Runtime::start(Config {
        monitor_period: Duration::from_millis(10),
        ..quiet_config()
    })
    .unwrap();
    let t0 = rt.core().register_thread().unwrap();
    let t1 = rt.core().register_thread().unwrap();
    let a = rt.new_lock_id();
    let b = rt.new_lock_id();
    let sa = rt.make_site(&[("m", "x.rs", 1), ("u", "x.rs", 3)]);
    let sb = rt.make_site(&[("m", "x.rs", 2), ("u", "x.rs", 3)]);
    rt.core().request(t0, a, sa.frames(), sa.stack());
    rt.core().acquired(t0, a, sa.stack());
    rt.core().request(t1, b, sb.frames(), sb.stack());
    rt.core().acquired(t1, b, sb.stack());
    rt.core().request(t0, b, sb.frames(), sb.stack());
    rt.core().waiting(t0, b, sb.stack());
    rt.core().request(t1, a, sa.frames(), sa.stack());
    rt.core().waiting(t1, a, sa.stack());
    // Wait for the background monitor to find it.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while rt.history().is_empty() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(rt.history().len(), 1, "background monitor found the cycle");
    rt.shutdown();
}

#[test]
fn unsupervised_threads_fall_back_to_plain_locking() {
    let rt = Runtime::new(quiet_config()).unwrap();
    // Every id is taken: 64 chunks of records, and no lane block, since
    // none of these threads ever publishes.
    let taken = std::iter::from_fn(|| rt.core().register_thread()).count();
    assert_eq!(taken, MAX_THREADS);
    // The test thread cannot register but locking still works.
    let m = rt.mutex(0);
    *m.lock() += 1;
    assert_eq!(*m.lock(), 1);
    assert!(rt.stats().unsupervised_threads >= 1);
    assert_eq!(rt.stats().acquisitions, 0, "no supervised acquisition");
}

#[test]
fn memory_footprint_reports_nonzero_after_use() {
    let rt = Runtime::new(quiet_config()).unwrap();
    seed_abba_signature(&rt);
    let bytes = rt.memory_footprint();
    assert!(bytes > 0);
}

#[test]
fn rag_dot_export_renders() {
    let rt = Runtime::new(quiet_config()).unwrap();
    let t0 = rt.core().register_thread().unwrap();
    let site = rt.make_site(&[("w", "x.rs", 1)]);
    // Nested, so the outer hold is published too: a lone hold is quiet.
    let (outer, inner) = (rt.new_lock_id(), rt.new_lock_id());
    for l in [outer, inner] {
        rt.core().request(t0, l, site.frames(), site.stack());
        rt.core().acquired(t0, l, site.stack());
    }
    rt.step_monitor();
    let dot = rt.rag_dot();
    assert!(dot.contains("digraph rag"));
    assert_eq!(dot.matches("[label=\"hold").count(), 2, "{dot}");
}

/// Canary for the monitor's claim of a quiet hold against the holder's
/// release. One thread loops lone pairs on `L` (each a quiet hold), a
/// second keeps blocking on `L` through `waiting`, and the spawned monitor,
/// on a short τ, claims the holder's hold whenever it draws the waiter's
/// allow edge — so claims race the holder's release swap, for a few hundred
/// passes. Once both are done (alive and holding nothing, so no exit sweep
/// tidies the graph), a final pass must find no hold edge left, and every
/// hook outcome retired exactly once: a claim that landed on a later hold,
/// or a release that missed its claim, leaves a stale edge or a miscount.
#[test]
fn a_claim_racing_the_holders_release_leaves_no_hold_edge() {
    const PASSES: u64 = 300;
    watchdogged(|| {
        let rt = Runtime::start(Config {
            monitor_period: Duration::from_millis(1),
            ..quiet_config()
        })
        .unwrap();
        let lock = rt.raw_lock();
        let sites = [
            rt.make_site(&[("holder", "claim.rs", 1)]),
            rt.make_site(&[("waiter", "claim.rs", 2)]),
        ];
        let stop = AtomicBool::new(false);
        let (done, exit) = (Barrier::new(3), Barrier::new(3));
        let (dot, stats) = std::thread::scope(|s| {
            for (site, hold) in sites.iter().zip([64, 0]) {
                let (lock, stop, done, exit) = (&lock, &stop, &done, &exit);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        lock.lock(site);
                        for _ in 0..hold {
                            std::hint::spin_loop();
                        }
                        lock.unlock();
                    }
                    done.wait();
                    exit.wait();
                });
            }
            let passes = rt.stats().monitor_passes;
            while rt.stats().monitor_passes < passes + PASSES {
                std::thread::sleep(Duration::from_millis(1));
            }
            stop.store(true, Ordering::Relaxed);
            done.wait();
            rt.step_monitor();
            let seen = (rt.rag_dot(), rt.stats());
            exit.wait();
            seen
        });
        rt.shutdown();

        assert_eq!(dot.matches("[label=\"hold").count(), 0, "{dot}");
        assert_eq!(
            stats.events_processed,
            stats.requests + stats.gos + stats.yields + stats.acquisitions + stats.releases,
            "{stats:?}"
        );
        assert!(stats.quiet_pairs > 0, "no pair was quiet: {stats:?}");
    });
}

/// No count is lost to the per-thread counters, which each hook updates
/// with a load and a store, exact only while one thread writes them. Eight
/// threads run 20 000 `RawLock` pairs each, every other one on a stack of a
/// loaded signature (so through its member bucket and the precheck), while
/// the spawned monitor reads the counters; then eight more threads take the
/// ids the first eight freed and do the same. Every pair counts exactly
/// once, and once all sixteen have exited every outcome has been retired.
#[test]
fn per_thread_counters_lose_no_count_across_threads_and_reused_ids() {
    const THREADS: usize = 8;
    const PAIRS: u64 = 20_000;
    watchdogged(|| {
        let rt = Runtime::start(Config {
            monitor_period: Duration::from_millis(1),
            ..quiet_config()
        })
        .unwrap();
        let site = |function, line| {
            rt.make_site(&[("main", "canary.rs", 1), (function, "canary.rs", line)])
        };
        let (member, partner, plain) = (site("member", 2), site("partner", 3), site("plain", 4));
        rt.history()
            .add(
                CycleKind::Deadlock,
                vec![member.stack(), partner.stack()],
                1,
            )
            .unwrap();
        let wave = || {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    let (rt, sites) = (rt.clone(), [member.clone(), plain.clone()]);
                    std::thread::spawn(move || {
                        let lock = rt.raw_lock();
                        for i in 0..PAIRS {
                            lock.lock(&sites[i as usize % 2]);
                            lock.unlock();
                        }
                        rt.current_thread().expect("registered")
                    })
                })
                .collect();
            // `join` returns once the thread-local exit sweep has freed the id.
            let mut ids: Vec<_> = workers.into_iter().map(|w| w.join().unwrap()).collect();
            ids.sort_unstable_by_key(|t| t.0);
            ids
        };
        let first = wave();
        assert_eq!(wave(), first, "the second wave reuses the first one's ids");
        rt.shutdown();

        let st = rt.stats();
        let pairs = 2 * THREADS as u64 * PAIRS;
        let counted = [st.requests, st.gos, st.acquisitions, st.releases];
        assert_eq!(counted, [pairs; 4], "{st:?}");
        assert_eq!(
            st.precheck_skips,
            pairs / 2,
            "one candidate per member pair"
        );
        assert_eq!(
            st.events_processed,
            st.requests + st.gos + st.yields + st.acquisitions + st.releases + 2 * THREADS as u64,
            "{st:?}"
        );
    });
}
