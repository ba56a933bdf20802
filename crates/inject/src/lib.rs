//! Deterministic fault injection for the Dimmunix runtime.
//!
//! A [`FaultPlan`] is a small script of component failures — "panic thread
//! slot T at its Nth instrumented acquire", "panic or stall the monitor
//! after pass P", "tear the history file at byte K", "crash between the
//! temp-file write and the publishing rename", "force an event-lane block
//! hand-over on every push" — that the runtime's hooks consult at the
//! corresponding points. Plans are either built explicitly or derived from
//! a seed with [`FaultPlan::from_seed`], so every chaos run is replayable
//! from a single `u64`.
//!
//! The crate is a dependency leaf: it knows nothing about the runtime's
//! types and identifies threads by their runtime slot index. Hooks in the
//! other crates are compiled only under their `fault-inject` feature and
//! call the free functions here ([`should_panic_on_acquire`],
//! [`monitor_fault`], [`take_history_fault`], [`force_lane_overflow`]);
//! with no plan installed every hook is a cheap atomic load that says
//! "no fault".
//!
//! Installation is process-global and serialized: [`install`] returns an
//! RAII [`InstallGuard`] that holds a global mutex for the duration of the
//! chaos scenario and uninstalls the plan on drop, so concurrent chaos
//! tests queue instead of corrupting each other's fault streams. Code that
//! installs nothing still runs beside an installed plan, so the one-shot
//! history fault is further reserved for saves made by the installing
//! thread ([`take_history_fault`]).

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// Panic one runtime thread at its Nth instrumented acquire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AcquireFault {
    /// Runtime thread-slot index of the victim (registration order).
    pub thread_slot: usize,
    /// 1-based count of `acquired` hook hits at which the panic fires.
    pub nth_acquire: u64,
}

/// What the monitor should do once it reaches the scripted pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MonitorFaultKind {
    /// Panic out of the pass (exercises restart + degradation).
    Panic,
    /// Sleep inside the pass for the given duration (stalled monitor).
    Stall(Duration),
}

/// Monitor fault script: fire `kind` on every pass numbered `>= after_pass`,
/// at most `times` times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MonitorFault {
    /// First 1-based monitor pass on which the fault fires.
    pub after_pass: u64,
    /// Fault to apply.
    pub kind: MonitorFaultKind,
    /// How many passes to fault (0 = unlimited).
    pub times: u64,
}

/// Torn-write / crash faults for the history persistence path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HistoryFault {
    /// After the rename publishes the file, overwrite one byte at `offset`
    /// (wrapping past EOF) — a torn sector.
    CorruptByte {
        /// Byte offset to corrupt (taken modulo file length).
        offset: u64,
    },
    /// After the rename publishes the file, truncate it to `offset` bytes
    /// (taken modulo file length) — a torn tail.
    TruncateAt {
        /// Length to truncate the published file to.
        offset: u64,
    },
    /// Simulate a crash between the temp-file write and the rename: the
    /// temp file is left behind and the destination is never updated.
    CrashBeforeRename,
}

/// A deterministic script of component failures for one chaos scenario.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Seed this plan was derived from (0 for hand-built plans).
    pub seed: u64,
    /// Per-thread panic points.
    pub acquire_panics: Vec<AcquireFault>,
    /// Monitor panic/stall script.
    pub monitor: Option<MonitorFault>,
    /// History persistence fault (consumed by the first save it applies to).
    pub history: Option<HistoryFault>,
    /// Force every event-lane push to hand over to a new block, as if the
    /// lane's newest block were full.
    pub lane_overflow: bool,
}

impl FaultPlan {
    /// An empty plan (no faults fire).
    pub fn none() -> Self {
        Self::default()
    }

    /// Derives a randomized-but-replayable plan from a seed. The same seed
    /// always yields the same plan; CI pins seeds so failures replay.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan {
            seed,
            ..FaultPlan::default()
        };
        // Always at least one fault; each class joins independently.
        while plan.acquire_panics.is_empty()
            && plan.monitor.is_none()
            && plan.history.is_none()
            && !plan.lane_overflow
        {
            if rng.gen_range(0..4_u32) == 0 {
                let victims = rng.gen_range(1..3_usize);
                for _ in 0..victims {
                    plan.acquire_panics.push(AcquireFault {
                        thread_slot: rng.gen_range(0..8_usize),
                        nth_acquire: rng.gen_range(1..40_u64),
                    });
                }
            }
            if rng.gen_range(0..4_u32) == 0 {
                plan.monitor = Some(MonitorFault {
                    after_pass: rng.gen_range(1..8_u64),
                    kind: if rng.gen_range(0..3_u32) == 0 {
                        MonitorFaultKind::Stall(Duration::from_millis(rng.gen_range(1..20_u64)))
                    } else {
                        MonitorFaultKind::Panic
                    },
                    times: rng.gen_range(1..6_u64),
                });
            }
            if rng.gen_range(0..4_u32) == 0 {
                plan.history = Some(match rng.gen_range(0..3_u32) {
                    0 => HistoryFault::CorruptByte {
                        offset: rng.gen_range(0..4096_u64),
                    },
                    1 => HistoryFault::TruncateAt {
                        offset: rng.gen_range(1..4096_u64),
                    },
                    _ => HistoryFault::CrashBeforeRename,
                });
            }
            if rng.gen_range(0..4_u32) == 0 {
                plan.lane_overflow = true;
            }
        }
        plan
    }

    /// Adds a "panic thread `slot` at its `nth` acquire" fault.
    pub fn panic_thread_at(mut self, slot: usize, nth: u64) -> Self {
        self.acquire_panics.push(AcquireFault {
            thread_slot: slot,
            nth_acquire: nth,
        });
        self
    }

    /// Panics the monitor on `times` consecutive passes starting at `pass`.
    pub fn kill_monitor_after(mut self, pass: u64, times: u64) -> Self {
        self.monitor = Some(MonitorFault {
            after_pass: pass,
            kind: MonitorFaultKind::Panic,
            times,
        });
        self
    }

    /// Stalls the monitor for `dur` on every pass starting at `pass`.
    pub fn stall_monitor_after(mut self, pass: u64, dur: Duration) -> Self {
        self.monitor = Some(MonitorFault {
            after_pass: pass,
            kind: MonitorFaultKind::Stall(dur),
            times: 0,
        });
        self
    }

    /// Tears the next published history file with a single corrupt byte.
    pub fn corrupt_history_at(mut self, offset: u64) -> Self {
        self.history = Some(HistoryFault::CorruptByte { offset });
        self
    }

    /// Truncates the next published history file at `offset` bytes.
    pub fn truncate_history_at(mut self, offset: u64) -> Self {
        self.history = Some(HistoryFault::TruncateAt { offset });
        self
    }

    /// Simulates a crash between the temp write and the publishing rename.
    pub fn crash_before_rename(mut self) -> Self {
        self.history = Some(HistoryFault::CrashBeforeRename);
        self
    }

    /// Forces every event-lane push to link a new block and hand over to
    /// it, so the monitor crosses a block boundary for every event.
    pub fn force_lane_overflow(mut self) -> Self {
        self.lane_overflow = true;
        self
    }
}

/// Counters of faults that actually fired, for test assertions.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FiredReport {
    /// Acquire-path panics raised.
    pub acquire_panics: u64,
    /// Monitor passes faulted (panic or stall).
    pub monitor_faults: u64,
    /// History faults applied.
    pub history_faults: u64,
    /// Lane pushes forced to hand over to a new block.
    pub lane_overflows: u64,
}

struct ActivePlan {
    plan: FaultPlan,
    /// The thread that installed the plan. The plan is process-global but
    /// a history fault is one-shot, so it is reserved for this thread's
    /// saves: an unrelated test saving its own history while the plan is
    /// installed cannot consume it.
    installer: std::thread::ThreadId,
    acquire_counts: Mutex<HashMap<usize, u64>>,
    history_consumed: AtomicBool,
    monitor_fired: AtomicU64,
    fired_acquire: AtomicU64,
    fired_monitor: AtomicU64,
    fired_history: AtomicU64,
    fired_lane: AtomicU64,
}

struct Registry {
    serial: Mutex<()>,
    active: Mutex<Option<&'static ActivePlan>>,
    installed: AtomicBool,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        serial: Mutex::new(()),
        active: Mutex::new(None),
        installed: AtomicBool::new(false),
    })
}

fn active() -> Option<&'static ActivePlan> {
    let reg = registry();
    if !reg.installed.load(Ordering::Acquire) {
        return None;
    }
    *reg.active.lock().unwrap_or_else(PoisonError::into_inner)
}

/// RAII handle for an installed [`FaultPlan`]. Holds the process-global
/// chaos mutex (serializing scenarios) and uninstalls the plan on drop.
pub struct InstallGuard {
    _serial: MutexGuard<'static, ()>,
    plan: &'static ActivePlan,
}

/// Installs `plan` as the process-global fault plan. Blocks until any
/// previously installed plan's guard is dropped.
pub fn install(plan: FaultPlan) -> InstallGuard {
    let reg = registry();
    let serial = reg.serial.lock().unwrap_or_else(PoisonError::into_inner);
    // Leak one ActivePlan per scenario: chaos plans are few and tiny, and a
    // 'static reference lets hooks read the plan without reference counting.
    let active_plan: &'static ActivePlan = Box::leak(Box::new(ActivePlan {
        plan,
        installer: std::thread::current().id(),
        acquire_counts: Mutex::new(HashMap::new()),
        history_consumed: AtomicBool::new(false),
        monitor_fired: AtomicU64::new(0),
        fired_acquire: AtomicU64::new(0),
        fired_monitor: AtomicU64::new(0),
        fired_history: AtomicU64::new(0),
        fired_lane: AtomicU64::new(0),
    }));
    *reg.active.lock().unwrap_or_else(PoisonError::into_inner) = Some(active_plan);
    reg.installed.store(true, Ordering::Release);
    InstallGuard {
        _serial: serial,
        plan: active_plan,
    }
}

impl InstallGuard {
    /// Counters of faults that have fired so far under this plan.
    pub fn fired(&self) -> FiredReport {
        FiredReport {
            acquire_panics: self.plan.fired_acquire.load(Ordering::Relaxed),
            monitor_faults: self.plan.fired_monitor.load(Ordering::Relaxed),
            history_faults: self.plan.fired_history.load(Ordering::Relaxed),
            lane_overflows: self.plan.fired_lane.load(Ordering::Relaxed),
        }
    }
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let reg = registry();
        reg.installed.store(false, Ordering::Release);
        *reg.active.lock().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

/// Hook: called by the avoidance engine on each instrumented acquire.
/// Returns `true` when the installed plan scripts a panic for this thread
/// slot at this acquire ordinal (1-based, counted per slot).
pub fn should_panic_on_acquire(thread_slot: usize) -> bool {
    let Some(active) = active() else { return false };
    if active.plan.acquire_panics.is_empty() {
        return false;
    }
    let mut counts = active
        .acquire_counts
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let n = counts.entry(thread_slot).or_insert(0);
    *n += 1;
    let nth = *n;
    drop(counts);
    let hit = active
        .plan
        .acquire_panics
        .iter()
        .any(|f| f.thread_slot == thread_slot && f.nth_acquire == nth);
    if hit {
        active.fired_acquire.fetch_add(1, Ordering::Relaxed);
    }
    hit
}

/// Hook: called by the monitor at the top of each pass (`pass` is the
/// 1-based pass count). Returns the scripted fault for this pass, if any.
/// `Stall` faults are applied here (the hook sleeps) so call sites only
/// have to panic on `Panic`.
pub fn monitor_fault(pass: u64) -> Option<MonitorFaultKind> {
    let active = active()?;
    let fault = active.plan.monitor?;
    if pass < fault.after_pass {
        return None;
    }
    if fault.times != 0 && active.monitor_fired.load(Ordering::Relaxed) >= fault.times {
        return None;
    }
    active.monitor_fired.fetch_add(1, Ordering::Relaxed);
    active.fired_monitor.fetch_add(1, Ordering::Relaxed);
    if let MonitorFaultKind::Stall(dur) = fault.kind {
        std::thread::sleep(dur);
    }
    Some(fault.kind)
}

/// Hook: called by the history saver once per save, after the temp file is
/// durable and before the rename. Consumes and returns the plan's history
/// fault (each plan tears at most one save, and only a save issued by the
/// thread that installed the plan).
pub fn take_history_fault() -> Option<HistoryFault> {
    let active = active()?;
    let fault = active.plan.history?;
    if std::thread::current().id() != active.installer {
        return None;
    }
    if active.history_consumed.swap(true, Ordering::AcqRel) {
        return None;
    }
    active.fired_history.fetch_add(1, Ordering::Relaxed);
    Some(fault)
}

/// Hook: called by the event lanes on each push. Returns `true` when the
/// plan forces this push to hand over to a new block.
pub fn force_lane_overflow() -> bool {
    let Some(active) = active() else { return false };
    if active.plan.lane_overflow {
        active.fired_lane.fetch_add(1, Ordering::Relaxed);
        return true;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_replayable_and_nonempty() {
        for seed in 0..64_u64 {
            let a = FaultPlan::from_seed(seed);
            let b = FaultPlan::from_seed(seed);
            assert_eq!(a.acquire_panics, b.acquire_panics, "seed {seed}");
            assert_eq!(a.monitor, b.monitor, "seed {seed}");
            assert_eq!(a.history, b.history, "seed {seed}");
            assert_eq!(a.lane_overflow, b.lane_overflow, "seed {seed}");
            assert!(
                !a.acquire_panics.is_empty()
                    || a.monitor.is_some()
                    || a.history.is_some()
                    || a.lane_overflow,
                "seed {seed} produced an empty plan"
            );
        }
    }

    #[test]
    fn hooks_are_inert_without_an_installed_plan() {
        assert!(!should_panic_on_acquire(0));
        assert!(monitor_fault(1).is_none());
        assert!(take_history_fault().is_none());
        assert!(!force_lane_overflow());
    }

    #[test]
    fn acquire_panic_fires_at_exactly_the_nth_acquire() {
        let guard = install(FaultPlan::none().panic_thread_at(3, 4));
        for n in 1..=6_u64 {
            let hit = should_panic_on_acquire(3);
            assert_eq!(hit, n == 4, "ordinal {n}");
            assert!(!should_panic_on_acquire(7), "other slot at ordinal {n}");
        }
        assert_eq!(guard.fired().acquire_panics, 1);
    }

    #[test]
    fn monitor_fault_respects_pass_and_budget() {
        let guard = install(FaultPlan::none().kill_monitor_after(3, 2));
        assert!(monitor_fault(1).is_none());
        assert!(monitor_fault(2).is_none());
        assert_eq!(monitor_fault(3), Some(MonitorFaultKind::Panic));
        assert_eq!(monitor_fault(4), Some(MonitorFaultKind::Panic));
        assert!(monitor_fault(5).is_none(), "budget of 2 exhausted");
        assert_eq!(guard.fired().monitor_faults, 2);
        drop(guard);
        assert!(monitor_fault(3).is_none(), "uninstalled on drop");
    }

    #[test]
    fn history_fault_is_consumed_once() {
        let guard = install(FaultPlan::none().truncate_history_at(17));
        assert_eq!(
            take_history_fault(),
            Some(HistoryFault::TruncateAt { offset: 17 })
        );
        assert!(take_history_fault().is_none());
        assert_eq!(guard.fired().history_faults, 1);
    }

    #[test]
    fn history_fault_fires_only_for_the_installing_thread() {
        let guard = install(FaultPlan::none().crash_before_rename());
        let stolen = std::thread::spawn(take_history_fault).join().unwrap();
        assert!(stolen.is_none(), "another thread's save took the fault");
        assert_eq!(guard.fired().history_faults, 0);
        assert_eq!(take_history_fault(), Some(HistoryFault::CrashBeforeRename));
    }
}
