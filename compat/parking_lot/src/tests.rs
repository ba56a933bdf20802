//! Tests of [`RawMutex`]'s three-state protocol. They live inside the crate
//! because they read the `#[cfg(test)]` slow-path counter and the private
//! `state` / `blocking` fields (to know that a waiter is parked without
//! sleeping and hoping).

use super::lock_api::{RawMutex as _, RawMutexTimed as _};
use super::{RawMutex, CONTENDED, HELD, SLOW_PATHS};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// Slow paths the calling thread has taken so far.
fn slow_paths() -> usize {
    SLOW_PATHS.with(|c| c.get())
}

/// Runs `body` on its own thread and fails the test if it has not finished
/// after 30 s — a lost wake-up shows as a hang, which must not hang the suite.
fn watchdogged(body: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let runner = thread::spawn(move || {
        body();
        let _ = done.send(());
    });
    match finished.recv_timeout(Duration::from_secs(30)) {
        Ok(()) => runner.join().expect("body finished"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(runner.join().expect_err("body panicked"))
        }
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("watchdog: a waiter was never woken"),
    }
}

/// Returns once a thread blocked on `m`, which the caller holds, is parked
/// inside `cond.wait`: the waiter's failed swap leaves the state at 2 while it
/// holds `blocking`, and it lets go of `blocking` only inside the wait.
fn wait_until_parked(m: &RawMutex) {
    while m.state.load(Ordering::Relaxed) != CONTENDED {
        thread::yield_now();
    }
    drop(m.park_lock());
}

#[test]
fn uncontended_pairs_take_no_slow_path() {
    let m = RawMutex::INIT;
    let before = slow_paths();
    for _ in 0..10_000 {
        m.lock();
        // SAFETY: Locked on the line above (and so for each pair below).
        unsafe { m.unlock() };
        assert!(m.try_lock());
        unsafe { m.unlock() };
        assert!(m.try_lock_for(Duration::from_secs(1)));
        unsafe { m.unlock() };
        assert!(m.try_lock_until(Instant::now()));
        unsafe { m.unlock() };
    }
    assert_eq!(slow_paths() - before, 0);
}

#[test]
fn a_taken_mutex_refuses_try_lock() {
    let m = RawMutex::INIT;
    m.lock();
    assert!(!m.try_lock());
    assert!(!m.try_lock_until(Instant::now()));
    // SAFETY: Locked above.
    unsafe { m.unlock() };
    assert!(m.try_lock());
}

#[test]
fn increments_under_contention_sum_exactly() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 50_000;
    watchdogged(|| {
        static M: RawMutex = RawMutex::INIT;
        // Load-then-store, not `fetch_add`: only mutual exclusion makes it
        // exact.
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..PER_THREAD {
                        M.lock();
                        let v = COUNTER.load(Ordering::Relaxed);
                        COUNTER.store(v + 1, Ordering::Relaxed);
                        // SAFETY: Locked three lines above.
                        unsafe { M.unlock() };
                    }
                });
            }
        });
        assert_eq!(COUNTER.load(Ordering::Relaxed), THREADS * PER_THREAD);
        assert!(M.try_lock(), "free once every thread is done");
    });
}

/// A holder and three parked waiters: every waiter must get the mutex in
/// turn, each woken by its predecessor's unlock. This is the test of the
/// swap-not-CAS rule: against a `lock_slow` that acquires with a 0 → 1
/// compare-exchange, the first waiter woken takes the mutex as "held, nobody
/// waits", its unlock notifies no one, and the other two sleep forever — the
/// test then fails by watchdog, every run (checked by hand for PR 21).
#[test]
fn every_parked_waiter_is_woken_in_turn() {
    watchdogged(|| {
        static M: RawMutex = RawMutex::INIT;
        static SERVED: AtomicU64 = AtomicU64::new(0);
        M.lock();
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                // White box: back to "held, nobody waits", so that this
                // waiter's own swap to 2 is what `wait_until_parked` sees.
                // Harmless while the holder (this thread) is not unlocking.
                M.state.store(HELD, Ordering::Relaxed);
                let w = thread::spawn(|| {
                    M.lock();
                    let v = SERVED.load(Ordering::Relaxed);
                    SERVED.store(v + 1, Ordering::Relaxed);
                    // SAFETY: Locked three lines above.
                    unsafe { M.unlock() };
                });
                wait_until_parked(&M);
                w
            })
            .collect();
        assert_eq!(SERVED.load(Ordering::Relaxed), 0);
        // SAFETY: Locked at the top.
        unsafe { M.unlock() };
        for w in waiters {
            w.join().expect("waiter finished");
        }
        assert_eq!(SERVED.load(Ordering::Relaxed), 3);
        assert!(M.try_lock(), "free once the chain is done");
    });
}

#[test]
fn an_expired_timed_waiter_costs_one_slow_unlock() {
    watchdogged(|| {
        static M: RawMutex = RawMutex::INIT;
        M.lock();
        let t0 = Instant::now();
        let timeout = Duration::from_millis(20);
        let got = thread::spawn(move || M.try_lock_for(timeout))
            .join()
            .expect("timed waiter finished");
        assert!(!got, "the mutex was held throughout");
        assert!(t0.elapsed() >= timeout);
        // The waiter left its "someone may wait" mark behind: this unlock
        // notifies no one, and that is all the stale state costs.
        let before = slow_paths();
        // SAFETY: Locked at the top.
        unsafe { M.unlock() };
        assert_eq!(slow_paths() - before, 1);
        for _ in 0..100 {
            M.lock();
            // SAFETY: Locked on the line above.
            unsafe { M.unlock() };
            assert!(M.try_lock_for(timeout));
            // SAFETY: Locked on the line above.
            unsafe { M.unlock() };
        }
        assert_eq!(slow_paths() - before, 1);
    });
}

#[test]
fn try_lock_for_duration_max_means_no_deadline() {
    watchdogged(|| {
        static M: RawMutex = RawMutex::INIT;
        static GOT: AtomicBool = AtomicBool::new(false);
        // Free: succeeds at once (`Instant::now() + Duration::MAX` panics).
        assert!(M.try_lock_for(Duration::MAX));
        // Taken: blocks until released.
        let waiter = thread::spawn(|| {
            let got = M.try_lock_for(Duration::MAX);
            GOT.store(true, Ordering::Relaxed);
            if got {
                // SAFETY: Locked two lines above.
                unsafe { M.unlock() };
            }
            got
        });
        wait_until_parked(&M);
        assert!(!GOT.load(Ordering::Relaxed));
        // SAFETY: Locked by the first `try_lock_for`.
        unsafe { M.unlock() };
        assert!(waiter.join().expect("waiter finished"));
    });
}
