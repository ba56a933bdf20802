//! Exit-path wake regression (the unwind-cleanup contract): a thread that
//! exits — orderly or panicking — while other threads yield on its entries
//! must wake those yielders promptly. Before the unwind sweep existed, the
//! dead thread's `Allowed` entries stayed bucketed and its wake list was
//! never drained, so with no max-yield bound the yielders parked forever.

use dimmunix_core::{Config, CycleKind, Decision, Runtime};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// Installs a two-member deadlock signature over two synthetic sites and
/// returns them.
fn seed_signature(rt: &Runtime) -> (dimmunix_core::LockSite, dimmunix_core::LockSite) {
    let sa = rt.make_site(&[("m", "x.rs", 1), ("u", "x.rs", 3)]);
    let sb = rt.make_site(&[("m", "x.rs", 2), ("u", "x.rs", 3)]);
    rt.history()
        .add(CycleKind::Deadlock, vec![sa.stack(), sb.stack()], 4)
        .unwrap();
    rt.history().touch();
    (sa, sb)
}

/// Deterministic hook-level version: the cause thread's deregistration must
/// (1) report the parked yielder through the wake callback, (2) count an
/// orphan wake, and (3) leave the view in a state where the yielder's
/// retried request GOes — the dead thread's entries are gone.
#[test]
fn unregister_wakes_yielders_and_clears_entries() {
    let rt = Runtime::new(Config::default()).unwrap();
    let (sa, sb) = seed_signature(&rt);
    let t0 = rt.core().register_thread().unwrap();
    let t1 = rt.core().register_thread().unwrap();
    let a = rt.new_lock_id();
    let b = rt.new_lock_id();

    // T0 holds A through SA: the bucketed entry every SB cover will pick.
    rt.core().request(t0, a, sa.frames(), sa.stack());
    rt.core().acquired(t0, a, sa.stack());

    // T1 requests its own (free) lock through SB: covered by T0's entry.
    let d = rt.core().request(t1, b, sb.frames(), sb.stack());
    assert!(matches!(d, Decision::Yield { .. }), "got {d:?}");

    // T0 exits without ever releasing A.
    let mut woken = Vec::new();
    rt.core()
        .unregister_thread_waking(t0, &mut |t| woken.push(t));
    assert_eq!(woken, vec![t1], "the exit sweep must deliver T1's wake");
    assert!(rt.stats().orphan_wakes >= 1, "{:?}", rt.stats());

    // T1's retry runs against a view with T0's entries removed: GO.
    let d = rt.core().request(t1, b, sb.frames(), sb.stack());
    assert!(matches!(d, Decision::Go), "got {d:?}");
    rt.core().acquired(t1, b, sb.stack());
}

/// Drives the real-OS-thread scenario: a holder takes lock A through SA and
/// then dies (`die` runs on the holder thread while A is still held); a
/// waiter parks unboundedly on the cover and must still complete.
fn run_exit_canary(die: fn(&Runtime)) -> dimmunix_core::StatsSnapshot {
    let cfg = Config {
        // No escape hatch: a lost exit wake parks the waiter forever and
        // the watchdog below turns the hang into a failure.
        max_yield_duration: None,
        ..Config::default()
    };
    let rt = Runtime::new(cfg).unwrap();
    let (sa, sb) = seed_signature(&rt);

    let lock_a = Arc::new(rt.raw_lock());
    // The waiter's request is only covered once the holder's SA entry is
    // bucketed: it must not run before the holder owns A.
    let a_held = Arc::new(Barrier::new(2));
    let mut handles = Vec::new();
    {
        let rt = rt.clone();
        let la = Arc::clone(&lock_a);
        let sa = sa.clone();
        let a_held = Arc::clone(&a_held);
        handles.push(std::thread::spawn(move || {
            la.lock(&sa);
            a_held.wait();
            // Wait until the waiter has yielded (and is parked, or about to
            // park — the register-then-revalidate protocol covers the gap).
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while rt.stats().yields < 1 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "waiter never yielded: {:?}",
                    rt.stats()
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            // Exit with A still held: deregistration must sweep and wake.
            die(&rt);
        }));
    }
    {
        let rt = rt.clone();
        let sb = sb.clone();
        handles.push(std::thread::spawn(move || {
            let lock = rt.raw_lock();
            a_held.wait();
            lock.lock(&sb);
            lock.unlock();
        }));
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    for h in handles {
        while !h.is_finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "exit wake lost: a parked yielder never woke: {:?}",
                rt.stats()
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        // The holder variant that panics reports Err here; that is the
        // scripted death, not a failure.
        let _ = h.join();
    }
    let stats = rt.stats();
    assert!(stats.orphan_wakes >= 1, "{stats:?}");
    stats
}

/// Orderly thread exit while a yielder is parked on its entries.
#[test]
fn thread_exit_wakes_parked_yielders() {
    let stats = run_exit_canary(|_| {});
    assert_eq!(stats.panic_cleanups, 0, "{stats:?}");
}

/// Panicking thread exit: same promptness guarantee, via the unwind path,
/// plus the panic-cleanup counter.
#[test]
fn thread_panic_wakes_parked_yielders() {
    // Silence only the scripted panic's report; anything else (e.g. a
    // failing assertion elsewhere in this binary) still prints.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let scripted = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("scripted holder death"));
        if !scripted {
            default_hook(info);
        }
    }));
    // The holder panics while additionally inside an RAII critical section:
    // the guard's release hook runs mid-unwind and latches the panic for
    // the TLS-teardown exit sweep (where `panicking()` is already false).
    let stats = run_exit_canary(|rt| {
        let extra = rt.mutex(());
        let _guard = extra.lock();
        panic!("scripted holder death");
    });
    assert_eq!(stats.panic_cleanups, 1, "{stats:?}");
}
