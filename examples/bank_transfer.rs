//! Bank transfers over real OS threads with `ImmunizedMutex` accounts.
//!
//! The program experiences the ABBA deadlock once (the second acquisition
//! is timed, so the occurrence unwinds instead of hanging), after which the
//! signature steers every future run: the staggered thread yields at its
//! first acquisition and both transfers complete.
//!
//! Run with: `cargo run --example bank_transfer`

use dimmunix::{frame, Config, ImmunizedMutex, Runtime};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn transfer(from: &ImmunizedMutex<i64>, to: &ImmunizedMutex<i64>, amount: i64) -> bool {
    frame!("transfer");
    let mut src = from.lock();
    std::thread::sleep(Duration::from_millis(120)); // "validation I/O"
    let Some(mut dst) = to.try_lock_for(Duration::from_millis(600)) else {
        return false; // First run: the deadlock window resolves by timeout.
    };
    *src -= amount;
    *dst += amount;
    true
}

fn run_pair(rt: &Runtime, a: &Arc<ImmunizedMutex<i64>>, b: &Arc<ImmunizedMutex<i64>>) -> usize {
    let done = Arc::new(AtomicUsize::new(0));
    let mut handles = Vec::new();
    for swap in [false, true] {
        let (a, b) = (Arc::clone(a), Arc::clone(b));
        let done = Arc::clone(&done);
        handles.push(std::thread::spawn(move || {
            if swap {
                std::thread::sleep(Duration::from_millis(25));
                if transfer(&b, &a, 10) {
                    done.fetch_add(1, Ordering::SeqCst);
                }
            } else if transfer(&a, &b, 25) {
                done.fetch_add(1, Ordering::SeqCst);
            }
        }));
    }
    for _ in 0..300 {
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

fn main() {
    let rt = Runtime::new(Config::default()).expect("runtime");
    let account_a = Arc::new(rt.mutex(1_000_i64));
    let account_b = Arc::new(rt.mutex(1_000_i64));

    println!("first run (no immunity yet)...");
    let ok = run_pair(&rt, &account_a, &account_b);
    println!(
        "  completed transfers: {ok}/2, deadlocks detected: {}, history: {} signature(s)",
        rt.stats().deadlocks_detected,
        rt.history().len()
    );

    println!("second run (immunized)...");
    let ok = run_pair(&rt, &account_a, &account_b);
    let stats = rt.stats();
    println!(
        "  completed transfers: {ok}/2, yields: {}, balance sum: {}",
        stats.yields,
        *account_a.lock() + *account_b.lock()
    );
    println!(
        "  call stacks interned by string: {} of {} lock requests (the rest came from the threads' context trees)",
        stats.capture_misses, stats.requests
    );
    assert_eq!(ok, 2, "immunized run must complete both transfers");
    assert_eq!(*account_a.lock() + *account_b.lock(), 2_000);
    println!("deadlock immunity acquired.");
}
