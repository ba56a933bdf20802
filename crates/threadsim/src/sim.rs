//! The cooperative scheduler.

use crate::lockstep::Lockstep;
use crate::sched::{RandomScheduler, SchedulePoint, Scheduler, StepClass};
use crate::script::{Op, Script};
use dimmunix_core::ThreadId;
use dimmunix_core::{Decision, Runtime, Signature, StatsSnapshot};
use dimmunix_signature::{FrameId, StackId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::sync::Arc;

/// Handle to a simulated lock (index within one [`Sim`]).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LockHandle(pub usize);

/// Simulator tunables.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Abort the run after this many scheduler steps (runaway guard).
    pub max_steps: u64,
    /// Step the monitor every this many time units (the simulated τ).
    pub monitor_every: u64,
    /// Simulated max-yield duration (steps) before a yield aborts, §5.7.
    pub max_yield_steps: Option<u64>,
    /// End the run as soon as the monitor reports a deadlock (the paper's
    /// "the test deadlocked prior to completion").
    pub stop_on_deadlock: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            max_steps: 1_000_000,
            monitor_every: 20,
            max_yield_steps: Some(100_000),
            stop_on_deadlock: true,
        }
    }
}

/// One edge of the wait-for graph at deadlock time: `waiter` cannot
/// proceed until `lock` — currently held by `holder` — is released.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct WaitEdge {
    /// The thread that cannot make progress.
    pub waiter: &'static str,
    /// The simulated lock it is waiting on.
    pub lock: &'static str,
    /// The thread holding that lock, if any ("none" can occur transiently
    /// when a yield cause's holder already released but the wake was not
    /// yet delivered — itself a diagnostic).
    pub holder: Option<&'static str>,
    /// `true` when the wait is an avoidance yield (parked by Dimmunix),
    /// `false` when the thread is blocked in the lock itself.
    pub via_yield: bool,
}

/// How a simulation ended.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// Every thread ran its script to completion.
    Completed,
    /// A deadlock occurred; the named threads were stuck.
    Deadlock {
        /// Names of the stuck threads.
        stuck: Vec<&'static str>,
        /// The wait-for edges among them: who waits on which lock held by
        /// whom. Minimizers and fixture formats key on these.
        edges: Vec<WaitEdge>,
    },
    /// The step budget ran out.
    MaxSteps,
}

/// Result of one simulation run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// How the run ended.
    pub outcome: Outcome,
    /// Scheduler steps consumed.
    pub steps: u64,
    /// Yields performed during this run.
    pub yields: u64,
    /// Deadlocks detected by the monitor during this run.
    pub deadlocks_detected: u64,
    /// Starvations detected during this run.
    pub starvations_detected: u64,
    /// Signatures added to the history during this run.
    pub signatures_added: u64,
    /// Yield-timeout aborts during this run.
    pub yield_aborts: u64,
    /// Events the monitor drained from the per-thread lanes during this
    /// run — the embedded-mode view of the monitor-lag gauge.
    pub events_drained: u64,
    /// Scheduling decision points in this run (the schedule's length).
    pub decisions: u64,
    /// Times a thread stopped being runnable: blocked on a held lock or
    /// parked in an avoidance yield.
    pub parks: u64,
    /// Times a parked thread was made runnable again: a FIFO lock
    /// hand-off, or a yield cause's release or cancel.
    /// On a completed run, `parks == wakes + yield_aborts` — every park
    /// was resolved by a wake or a timeout, none was lost.
    pub wakes: u64,
}

impl RunReport {
    /// Whether the run completed without deadlocking.
    pub fn completed(&self) -> bool {
        self.outcome == Outcome::Completed
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum VState {
    Ready,
    /// Waiting for the simulated lock to be granted (GO was given).
    Blocked(usize),
    /// Dimmunix told the thread to yield on this lock.
    Yielding(usize),
    Done,
}

struct VThread {
    name: &'static str,
    tid: ThreadId,
    ops: Vec<Op>,
    pc: usize,
    /// Interned frames of the current call scopes (outermost first).
    frames: Vec<FrameId>,
    state: VState,
    /// Set when a `release` or `cancel` wake makes a yielder eligible. A
    /// yield the monitor broke resumes at its timeout (`take_broken`).
    woken: bool,
    yield_since: u64,
    yield_sig: Option<Arc<Signature>>,
    /// Pending site info for the lock being yielded on (to retry).
    pending: Option<(Vec<FrameId>, StackId)>,
    held: Vec<usize>,
}

struct SimLock {
    name: &'static str,
    id: dimmunix_core::LockId,
    owner: Option<usize>,
    waiters: VecDeque<usize>,
}

/// A deterministic simulation of virtual threads over one Dimmunix runtime.
///
/// The runtime (and hence the history — the immune memory) is shared across
/// sims: run one `Sim` per "program execution" and reuse the runtime to
/// model restarts.
///
/// Simulated threads drive the exact production hook path: spawning
/// registers a dense thread id *and* its per-thread SPSC event lane, every
/// hook publishes onto that lane, and the embedded monitor steps drain the
/// lanes in slot order — so the simulator exercises the same sharded
/// request path (and the same lane-ordering rules) as real OS threads.
/// Every hook goes through the sim's [`Lockstep`].
pub struct Sim {
    rt: Runtime,
    config: SimConfig,
    rng: StdRng,
    locks: Vec<SimLock>,
    threads: Vec<VThread>,
    time: u64,
    start_stats: StatsSnapshot,
    lockstep: Lockstep,
    parks: u64,
    wakes: u64,
}

impl Sim {
    /// Creates a simulation over `rt` with a deterministic `seed`.
    pub fn new(rt: &Runtime, seed: u64) -> Self {
        Self::with_config(rt, seed, SimConfig::default())
    }

    /// Creates a simulation with explicit tunables.
    pub fn with_config(rt: &Runtime, seed: u64, config: SimConfig) -> Self {
        Self {
            rt: rt.clone(),
            config,
            rng: StdRng::seed_from_u64(seed),
            locks: Vec::new(),
            threads: Vec::new(),
            time: 0,
            start_stats: rt.stats(),
            lockstep: Lockstep::new(rt),
            parks: 0,
            wakes: 0,
        }
    }

    /// Attaches the reference engine to the sim's [`Lockstep`]: every later
    /// hook is compared on the spot, and divergences accumulate in
    /// [`Sim::shadow_divergences`]. Must be called before [`Sim::spawn`] so
    /// both engines see every registration.
    ///
    /// # Panics
    ///
    /// Panics if threads were already spawned.
    pub fn attach_shadow(&mut self) {
        self.lockstep.attach_reference();
    }

    /// The [`Lockstep`] divergence reports (empty without a reference, or
    /// while the engines agree).
    pub fn shadow_divergences(&self) -> &[String] {
        self.lockstep.divergences()
    }

    /// Declares a simulated lock.
    pub fn lock_handle(&mut self, name: &'static str) -> LockHandle {
        let id = self.rt.new_lock_id();
        self.locks.push(SimLock {
            name,
            id,
            owner: None,
            waiters: VecDeque::new(),
        });
        LockHandle(self.locks.len() - 1)
    }

    /// Spawns a virtual thread running `script`.
    ///
    /// # Panics
    ///
    /// Panics if [`dimmunix_core::config::MAX_THREADS`] threads are registered.
    pub fn spawn(&mut self, name: &'static str, script: Script) {
        let tid = self.lockstep.register(name);
        self.threads.push(VThread {
            name,
            tid,
            ops: script.ops().to_vec(),
            pc: 0,
            frames: Vec::new(),
            state: VState::Ready,
            woken: false,
            yield_since: 0,
            yield_sig: None,
            pending: None,
            held: Vec::new(),
        });
    }

    /// Interns the stack for thread `v` locking at `site` (or at its current
    /// program position when `site` is `None`).
    fn lock_stack(&self, v: usize, site: Option<&'static str>) -> (Vec<FrameId>, StackId) {
        let t = &self.threads[v];
        let mut frames = t.frames.clone();
        let site_frame = match site {
            Some(s) => self.rt.frame_table().intern(s, "<site>", 0),
            None => self
                .rt
                .frame_table()
                .intern("lock", "<script>", t.pc as u32),
        };
        frames.push(site_frame);
        let stack = self.rt.stack_table().intern(&frames);
        (frames, stack)
    }

    /// Grants `lock` to `v` at the core level and updates sim state.
    fn grant(&mut self, v: usize, lock: usize, stack: StackId) {
        let tid = self.threads[v].tid;
        let lid = self.locks[lock].id;
        self.locks[lock].owner = Some(v);
        self.lockstep.acquired(tid, lid, stack);
        self.threads[v].held.push(lock);
        self.threads[v].state = VState::Ready;
        self.threads[v].pc += 1;
    }

    /// Attempts the simulated acquisition after a GO decision.
    fn attempt_acquire(&mut self, v: usize, lock: usize, stack: StackId) {
        if self.locks[lock].owner.is_none() {
            self.grant(v, lock, stack);
        } else {
            // The one place a simulated thread blocks inside a mutex: its
            // allow edge is published first, as `dimmunix_core`'s lock
            // types do.
            let (tid, lid) = (self.threads[v].tid, self.locks[lock].id);
            self.lockstep.waiting(tid, lid, stack);
            self.locks[lock].waiters.push_back(v);
            self.threads[v].state = VState::Blocked(lock);
            self.threads[v].pending = Some((Vec::new(), stack));
            self.parks += 1;
        }
    }

    /// Cancels thread `v`'s request of `lock` and wakes the yielders the
    /// cancel hands back.
    fn do_cancel(&mut self, v: usize, lock: usize) {
        let (tid, lid) = (self.threads[v].tid, self.locks[lock].id);
        let wake = self.lockstep.cancel(tid, lid);
        self.wake_yielders(wake);
    }

    /// Runs thread `v`'s ops up to and including one visible op (see
    /// [`StepClass`]): the local ops before it, if any, then the lock
    /// operation or the retry of a woken yield. A no-op when the thread is
    /// blocked, done, or yielding and not woken. Never steps the monitor
    /// and never advances time. Returns the decision of the request the
    /// step made, if it made one.
    pub fn step(&mut self, v: usize) -> Option<Decision> {
        while self.eligible(v) {
            let visible = matches!(self.step_class(v), StepClass::Visible(_));
            let decision = self.run_slot(v);
            if visible {
                return decision;
            }
        }
        None
    }

    /// Executes one scheduling slot for thread `v`: one op, or the resume
    /// of its yield. Returns the decision of the request it made, if any.
    fn run_slot(&mut self, v: usize) -> Option<Decision> {
        // Resume a yielding thread first.
        if let VState::Yielding(lock) = self.threads[v].state {
            let (tid, lid) = (self.threads[v].tid, self.locks[lock].id);
            let (frames, stack) = self.threads[v]
                .pending
                .clone()
                .expect("yielding thread has a pending request");
            if self.rt.core().take_broken(tid) {
                // Monitor broke the starvation: pursue the lock directly.
                self.lockstep.force_go(tid, lid, &frames, stack);
                self.threads[v].yield_sig = None;
                self.threads[v].woken = false;
                self.attempt_acquire(v, lock, stack);
                return None;
            }
            let timed_out = self
                .config
                .max_yield_steps
                .is_some_and(|m| self.time.saturating_sub(self.threads[v].yield_since) >= m);
            if timed_out {
                if let Some(sig) = self.threads[v].yield_sig.take() {
                    crate::sim::record_abort(&self.rt, &sig);
                }
                self.lockstep.force_go(tid, lid, &frames, stack);
                self.threads[v].woken = false;
                self.attempt_acquire(v, lock, stack);
                return None;
            }
            if !self.threads[v].woken {
                return None;
            }
            self.threads[v].woken = false;
            let decision = self.lockstep.request(tid, lid, &frames, stack);
            match &decision {
                Decision::Go => {
                    self.threads[v].yield_sig = None;
                    self.attempt_acquire(v, lock, stack);
                }
                Decision::Yield { sig } => {
                    self.threads[v].yield_sig = Some(Arc::clone(sig));
                    self.threads[v].yield_since = self.time;
                    self.parks += 1;
                }
            }
            return Some(decision);
        }

        let Some(&op) = self.threads[v].ops.get(self.threads[v].pc) else {
            self.finish_thread(v);
            return None;
        };
        match op {
            Op::Call(name) => {
                let f = self.rt.frame_table().intern(name, "<call>", 0);
                self.threads[v].frames.push(f);
                self.threads[v].pc += 1;
            }
            Op::Return => {
                self.threads[v].frames.pop();
                self.threads[v].pc += 1;
            }
            Op::Compute(n) => {
                self.time += u64::from(n);
                self.threads[v].pc += 1;
            }
            Op::Lock(LockHandle(lock), site) => {
                let (frames, stack) = self.lock_stack(v, site);
                let (tid, lid) = (self.threads[v].tid, self.locks[lock].id);
                let decision = self.lockstep.request(tid, lid, &frames, stack);
                match &decision {
                    Decision::Go => self.attempt_acquire(v, lock, stack),
                    Decision::Yield { sig } => {
                        self.threads[v].state = VState::Yielding(lock);
                        self.threads[v].yield_sig = Some(Arc::clone(sig));
                        self.threads[v].yield_since = self.time;
                        self.threads[v].woken = false;
                        self.threads[v].pending = Some((frames, stack));
                        self.parks += 1;
                    }
                }
                return Some(decision);
            }
            Op::TryLock(LockHandle(lock), site) => {
                let (frames, stack) = self.lock_stack(v, site);
                let (tid, lid) = (self.threads[v].tid, self.locks[lock].id);
                let decision = self.lockstep.request(tid, lid, &frames, stack);
                if matches!(decision, Decision::Go) && self.locks[lock].owner.is_none() {
                    self.grant(v, lock, stack);
                } else {
                    self.do_cancel(v, lock);
                    self.threads[v].pc += 1;
                }
                return Some(decision);
            }
            Op::UnlockIfHeld(LockHandle(lock)) => {
                if self.threads[v].held.contains(&lock) {
                    self.do_unlock(v, lock);
                } else {
                    self.threads[v].pc += 1;
                }
            }
            Op::UnlockInnermost => match self.threads[v].held.last() {
                Some(&lock) => self.do_unlock(v, lock),
                None => self.threads[v].pc += 1,
            },
            Op::Unlock(LockHandle(lock)) => {
                self.do_unlock(v, lock);
            }
        }
        None
    }

    fn do_unlock(&mut self, v: usize, lock: usize) {
        let (tid, lid) = (self.threads[v].tid, self.locks[lock].id);
        let wake = self.lockstep.release(tid, lid);
        if let Some(pos) = self.threads[v].held.iter().rposition(|&h| h == lock) {
            self.threads[v].held.remove(pos);
        }
        self.locks[lock].owner = None;
        // FIFO hand-off to the next blocked waiter.
        if let Some(next) = self.locks[lock].waiters.pop_front() {
            let stack = self.threads[next]
                .pending
                .as_ref()
                .map(|(_, s)| *s)
                .expect("blocked thread has a pending stack");
            self.wakes += 1;
            self.grant(next, lock, stack);
        }
        self.wake_yielders(wake);
        self.threads[v].pc += 1;
    }

    /// Wakes the yielding threads a `release` or `cancel` handed back.
    fn wake_yielders(&mut self, wake: Vec<ThreadId>) {
        for w in wake {
            if let Some(idx) = self.threads.iter().position(|t| t.tid == w) {
                if !self.threads[idx].woken {
                    self.wakes += 1;
                }
                self.threads[idx].woken = true;
            }
        }
    }

    fn finish_thread(&mut self, v: usize) {
        self.threads[v].state = VState::Done;
    }

    /// Whether thread `v` can be scheduled right now.
    fn eligible(&self, v: usize) -> bool {
        match self.threads[v].state {
            VState::Ready => true,
            VState::Yielding(_) => {
                self.threads[v].woken
                    || self
                        .config
                        .max_yield_steps
                        .is_some_and(|m| self.time.saturating_sub(self.threads[v].yield_since) >= m)
            }
            VState::Blocked(_) | VState::Done => false,
        }
    }

    /// Runs to completion, deadlock, or step exhaustion under the built-in
    /// seeded [`RandomScheduler`] (the seed passed at construction).
    pub fn run(&mut self) -> RunReport {
        // Hand the sim's own rng to a RandomScheduler for the duration, so
        // seeded runs consume the exact same random stream as they did
        // before the scheduler became pluggable.
        let rng = std::mem::replace(&mut self.rng, StdRng::seed_from_u64(0));
        let mut sched = RandomScheduler::from_rng(rng);
        let report = self.run_with(&mut sched);
        self.rng = sched.into_rng();
        report
    }

    /// Runs to completion, deadlock, or step exhaustion, asking `sched`
    /// which eligible thread steps at every decision point.
    pub fn run_with(&mut self, sched: &mut dyn Scheduler) -> RunReport {
        self.parks = 0;
        self.wakes = 0;
        let mut steps = 0_u64;
        let mut decisions = 0_u64;
        let mut last_monitor = 0_u64;
        let outcome = loop {
            if steps >= self.config.max_steps {
                break Outcome::MaxSteps;
            }
            steps += 1;
            self.time += 1;
            if self.time - last_monitor >= self.config.monitor_every {
                last_monitor = self.time;
                self.rt.step_monitor();
                if self.config.stop_on_deadlock && self.deadlock_delta() > 0 {
                    break self.deadlock_outcome();
                }
            }
            let eligible: Vec<usize> = (0..self.threads.len())
                .filter(|&v| self.eligible(v))
                .collect();
            if eligible.is_empty() {
                if self.threads.iter().all(|t| t.state == VState::Done) {
                    break Outcome::Completed;
                }
                // Quiescent but unfinished: give the monitor a chance to
                // detect and break, then advance time to yield timeouts.
                self.rt.step_monitor();
                last_monitor = self.time;
                if self.config.stop_on_deadlock && self.deadlock_delta() > 0 {
                    break self.deadlock_outcome();
                }
                if self.threads.iter().any(|t| t.woken) {
                    continue;
                }
                // Advance virtual time to the earliest yield timeout.
                let next_timeout = self
                    .threads
                    .iter()
                    .filter_map(|t| match t.state {
                        VState::Yielding(_) => self
                            .config
                            .max_yield_steps
                            .map(|m| t.yield_since.saturating_add(m)),
                        _ => None,
                    })
                    .min();
                match next_timeout {
                    Some(deadline) if deadline > self.time => {
                        self.time = deadline;
                        continue;
                    }
                    Some(_) => continue,
                    None => {
                        // Nothing can ever run again: a real deadlock.
                        let outcome = self.deadlock_outcome();
                        self.rt.step_monitor();
                        break outcome;
                    }
                }
            }
            let classes: Vec<StepClass> = eligible.iter().map(|&v| self.step_class(v)).collect();
            let point = SchedulePoint {
                decision: decisions,
                eligible: &eligible,
                classes: &classes,
            };
            let pick = sched.pick(&point);
            assert!(
                eligible.contains(&pick),
                "scheduler picked ineligible thread {pick} (eligible {eligible:?})"
            );
            decisions += 1;
            self.run_slot(pick);
        };
        // Trial over: drain events and clean up the RAG (the "program" has
        // terminated or been restarted).
        self.rt.step_monitor();
        let end = self.rt.stats();
        RunReport {
            outcome,
            steps,
            yields: end.yields - self.start_stats.yields,
            deadlocks_detected: end.deadlocks_detected - self.start_stats.deadlocks_detected,
            starvations_detected: end.starvations_detected - self.start_stats.starvations_detected,
            signatures_added: end.signatures_added - self.start_stats.signatures_added,
            yield_aborts: end.yield_aborts - self.start_stats.yield_aborts,
            events_drained: end.events_processed - self.start_stats.events_processed,
            decisions,
            parks: self.parks,
            wakes: self.wakes,
        }
    }

    /// The step class thread `v` would execute if scheduled now (see
    /// [`StepClass`]). Dynamic: an `UnlockIfHeld` of an unheld lock is
    /// local, a yield-resume is visible on the yielded lock.
    fn step_class(&self, v: usize) -> StepClass {
        let t = &self.threads[v];
        if let VState::Yielding(lock) = t.state {
            return StepClass::Visible(lock);
        }
        match t.ops.get(t.pc).copied() {
            None | Some(Op::Call(_)) | Some(Op::Return) | Some(Op::Compute(_)) => StepClass::Local,
            Some(Op::Lock(LockHandle(l), _))
            | Some(Op::TryLock(LockHandle(l), _))
            | Some(Op::Unlock(LockHandle(l))) => StepClass::Visible(l),
            Some(Op::UnlockIfHeld(LockHandle(l))) => {
                if t.held.contains(&l) {
                    StepClass::Visible(l)
                } else {
                    StepClass::Local
                }
            }
            Some(Op::UnlockInnermost) => t
                .held
                .last()
                .map_or(StepClass::Local, |&l| StepClass::Visible(l)),
        }
    }

    fn deadlock_outcome(&self) -> Outcome {
        Outcome::Deadlock {
            stuck: self.stuck_names(),
            edges: self.wait_edges(),
        }
    }

    /// The wait-for edges among unfinished threads: blocked waits read the
    /// simulated lock table, yield waits read the core's registered causes
    /// through the probe surface.
    fn wait_edges(&self) -> Vec<WaitEdge> {
        let mut edges = Vec::new();
        for t in &self.threads {
            match t.state {
                VState::Blocked(l) => edges.push(WaitEdge {
                    waiter: t.name,
                    lock: self.locks[l].name,
                    holder: self.locks[l].owner.map(|o| self.threads[o].name),
                    via_yield: false,
                }),
                VState::Yielding(l) => {
                    let causes = self.rt.core().yield_causes(t.tid);
                    if causes.is_empty() {
                        // Cause already cleared (broken yield not yet
                        // resumed): fall back to the yielded lock itself.
                        edges.push(WaitEdge {
                            waiter: t.name,
                            lock: self.locks[l].name,
                            holder: self.locks[l].owner.map(|o| self.threads[o].name),
                            via_yield: true,
                        });
                    }
                    for c in causes {
                        edges.push(WaitEdge {
                            waiter: t.name,
                            lock: self
                                .locks
                                .iter()
                                .find(|sl| sl.id == c.lock)
                                .map_or("<extern>", |sl| sl.name),
                            holder: self
                                .threads
                                .iter()
                                .find(|th| th.tid == c.thread)
                                .map(|th| th.name),
                            via_yield: true,
                        });
                    }
                }
                VState::Ready | VState::Done => {}
            }
        }
        edges
    }

    /// Names of this sim's threads the core still counts as parked in a
    /// yield — on a completed run this must be empty (no lost wakeups).
    pub fn parked_yielders(&self) -> Vec<&'static str> {
        let parked = self.rt.core().parked_yielders();
        self.threads
            .iter()
            .filter(|t| parked.iter().any(|(pt, _)| *pt == t.tid))
            .map(|t| t.name)
            .collect()
    }

    fn deadlock_delta(&self) -> u64 {
        self.rt.stats().deadlocks_detected - self.start_stats.deadlocks_detected
    }

    fn stuck_names(&self) -> Vec<&'static str> {
        self.threads
            .iter()
            .filter(|t| !matches!(t.state, VState::Done))
            .map(|t| t.name)
            .collect()
    }

    /// Current simulated time.
    pub fn now(&self) -> u64 {
        self.time
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        // The exit sweeps: their wakes go to threads that are exiting too,
        // and a divergence among them has no later reader, so it panics.
        let before = self.lockstep.divergences().len();
        for t in &self.threads {
            self.lockstep.unregister(t.tid);
        }
        let at_exit = &self.lockstep.divergences()[before..];
        assert!(
            at_exit.is_empty() || std::thread::panicking(),
            "lockstep divergence at thread exit: {at_exit:?}"
        );
        // Let the monitor observe the exits so the RAG forgets this run.
        self.rt.step_monitor();
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("threads", &self.threads.len())
            .field("locks", &self.locks.len())
            .field("time", &self.time)
            .finish()
    }
}

/// Records a yield-timeout abort against `sig` with the runtime's
/// auto-disable policy (mirrors the real-thread path).
fn record_abort(rt: &Runtime, sig: &Arc<Signature>) {
    let aborts = sig.record_abort();
    if let Some(threshold) = rt.config().abort_disable_threshold {
        if aborts >= threshold && !sig.is_disabled() {
            sig.set_disabled(true);
            rt.history().touch();
        }
    }
}
