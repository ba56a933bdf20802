//! The cooperative scheduler.

use crate::sched::{RandomScheduler, SchedulePoint, Scheduler, StepClass};
use crate::script::{Op, Script};
use dimmunix_core::ThreadId;
use dimmunix_core::{Decision, ReferenceCore, Runtime, Signature, StatsSnapshot};
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
    /// hand-off, a yield-cause release, or a monitor starvation break.
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
    /// Set when a `release` wake or monitor break makes a yielder eligible.
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

/// A lockstep shadow: the preserved single-lock [`ReferenceCore`] driven
/// through the same hook sequence as the production sharded engine, with
/// every GO/YIELD decision and wake set compared on the spot.
struct Shadow {
    core: ReferenceCore,
    /// Shadow thread ids, parallel to `Sim::threads`.
    tids: Vec<ThreadId>,
    /// Human-readable divergence reports (empty = byte-identical streams).
    divergences: Vec<String>,
    /// Whether shadow tids numerically equal the runtime tids. Cover
    /// *choice* (which instance binds) is order-sensitive in tid space, so
    /// wake sets are only comparable when the numbering lines up; GO/YIELD
    /// decisions are order-insensitive and always compared.
    aligned: bool,
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
pub struct Sim {
    rt: Runtime,
    config: SimConfig,
    rng: StdRng,
    locks: Vec<SimLock>,
    threads: Vec<VThread>,
    time: u64,
    start_stats: StatsSnapshot,
    shadow: Option<Shadow>,
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
            shadow: None,
            parks: 0,
            wakes: 0,
        }
    }

    /// Attaches a lockstep [`ReferenceCore`] shadow sharing this runtime's
    /// history and stack table. Every subsequent hook is mirrored into the
    /// shadow and its GO/YIELD decision compared on the spot; divergences
    /// accumulate in [`Sim::shadow_divergences`]. Must be called before
    /// [`Sim::spawn`] so both engines see identical registration order.
    ///
    /// # Panics
    ///
    /// Panics if threads were already spawned.
    pub fn attach_shadow(&mut self) {
        assert!(
            self.threads.is_empty(),
            "attach_shadow must be called before spawn()"
        );
        self.shadow = Some(Shadow {
            core: ReferenceCore::new(
                self.rt.config().clone(),
                Arc::clone(self.rt.history()),
                Arc::clone(self.rt.stack_table()),
            ),
            tids: Vec::new(),
            divergences: Vec::new(),
            aligned: true,
        });
    }

    /// Divergence reports from the lockstep shadow (empty when no shadow
    /// is attached, or when the decision streams matched byte for byte).
    pub fn shadow_divergences(&self) -> &[String] {
        self.shadow.as_ref().map_or(&[], |s| &s.divergences)
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
    /// Panics if the runtime's `max_threads` registrations are exhausted.
    pub fn spawn(&mut self, name: &'static str, script: Script) {
        let tid = self
            .rt
            .core()
            .register_thread()
            .expect("simulator thread registration failed: raise Config::max_threads");
        if let Some(sh) = &mut self.shadow {
            let stid = sh
                .core
                .register_thread()
                .expect("shadow thread registration failed");
            sh.aligned &= stid == tid;
            sh.tids.push(stid);
        }
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
        self.rt.core().acquired(tid, lid, stack);
        if let Some(sh) = &mut self.shadow {
            sh.core.acquired(sh.tids[v], lid, stack);
        }
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
            // types do. (The shadow publishes its `Go` at the request.)
            let (tid, lid) = (self.threads[v].tid, self.locks[lock].id);
            self.rt.core().waiting(tid, lid, stack);
            self.locks[lock].waiters.push_back(v);
            self.threads[v].state = VState::Blocked(lock);
            self.threads[v].pending = Some((Vec::new(), stack));
            self.parks += 1;
        }
    }

    /// Mirrors a `request` into the shadow and compares the decision.
    fn shadow_request(
        &mut self,
        v: usize,
        lock: usize,
        frames: &[FrameId],
        stack: StackId,
        primary_go: bool,
    ) {
        let lid = self.locks[lock].id;
        let Some(sh) = &mut self.shadow else { return };
        let d = sh.core.request(sh.tids[v], lid, frames, stack);
        let shadow_go = matches!(d, Decision::Go);
        if shadow_go != primary_go {
            sh.divergences.push(format!(
                "decision divergence: thread {} requesting {}: sharded {} vs reference {}",
                self.threads[v].name,
                self.locks[lock].name,
                if primary_go { "GO" } else { "YIELD" },
                if shadow_go { "GO" } else { "YIELD" },
            ));
        }
    }

    /// Mirrors a `force_go` into the shadow (broken or timed-out yield).
    fn shadow_force_go(&mut self, v: usize, lock: usize, frames: &[FrameId], stack: StackId) {
        let lid = self.locks[lock].id;
        if let Some(sh) = &mut self.shadow {
            sh.core.force_go(sh.tids[v], lid, frames, stack);
        }
    }

    /// Mirrors a `cancel` into the shadow.
    fn shadow_cancel(&mut self, v: usize, lock: usize) {
        let lid = self.locks[lock].id;
        if let Some(sh) = &mut self.shadow {
            sh.core.cancel(sh.tids[v], lid);
        }
    }

    /// Drains the shadow's event queue (stands in for its monitor).
    fn drain_shadow(&self) {
        if let Some(sh) = &self.shadow {
            sh.core.drain_events(usize::MAX);
        }
    }

    /// Executes one scheduling slot for thread `v`. Returns `false` if the
    /// thread could not make progress.
    fn run_slot(&mut self, v: usize) {
        // Resume a yielding thread first.
        if let VState::Yielding(lock) = self.threads[v].state {
            let tid = self.threads[v].tid;
            let (frames, stack) = self.threads[v]
                .pending
                .clone()
                .expect("yielding thread has a pending request");
            if self.rt.core().take_broken(tid) {
                // Monitor broke the starvation: pursue the lock directly.
                self.rt
                    .core()
                    .force_go(tid, self.locks[lock].id, &frames, stack);
                self.shadow_force_go(v, lock, &frames, stack);
                self.threads[v].yield_sig = None;
                self.threads[v].woken = false;
                self.attempt_acquire(v, lock, stack);
                return;
            }
            let timed_out = self
                .config
                .max_yield_steps
                .is_some_and(|m| self.time.saturating_sub(self.threads[v].yield_since) >= m);
            if timed_out {
                if let Some(sig) = self.threads[v].yield_sig.take() {
                    crate::sim::record_abort(&self.rt, &sig);
                }
                self.rt
                    .core()
                    .force_go(tid, self.locks[lock].id, &frames, stack);
                self.shadow_force_go(v, lock, &frames, stack);
                self.threads[v].woken = false;
                self.attempt_acquire(v, lock, stack);
                return;
            }
            if !self.threads[v].woken {
                return;
            }
            self.threads[v].woken = false;
            match self
                .rt
                .core()
                .request(tid, self.locks[lock].id, &frames, stack)
            {
                Decision::Go => {
                    self.shadow_request(v, lock, &frames, stack, true);
                    self.threads[v].yield_sig = None;
                    self.attempt_acquire(v, lock, stack);
                }
                Decision::Yield { sig } => {
                    self.shadow_request(v, lock, &frames, stack, false);
                    self.threads[v].yield_sig = Some(sig);
                    self.threads[v].yield_since = self.time;
                    self.parks += 1;
                }
            }
            return;
        }

        let Some(&op) = self.threads[v].ops.get(self.threads[v].pc) else {
            self.finish_thread(v);
            return;
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
                let tid = self.threads[v].tid;
                match self
                    .rt
                    .core()
                    .request(tid, self.locks[lock].id, &frames, stack)
                {
                    Decision::Go => {
                        self.shadow_request(v, lock, &frames, stack, true);
                        self.attempt_acquire(v, lock, stack);
                    }
                    Decision::Yield { sig } => {
                        self.shadow_request(v, lock, &frames, stack, false);
                        self.threads[v].state = VState::Yielding(lock);
                        self.threads[v].yield_sig = Some(sig);
                        self.threads[v].yield_since = self.time;
                        self.threads[v].woken = false;
                        self.threads[v].pending = Some((frames, stack));
                        self.parks += 1;
                    }
                }
            }
            Op::TryLock(LockHandle(lock), site) => {
                let (frames, stack) = self.lock_stack(v, site);
                let tid = self.threads[v].tid;
                match self
                    .rt
                    .core()
                    .request(tid, self.locks[lock].id, &frames, stack)
                {
                    Decision::Go => {
                        self.shadow_request(v, lock, &frames, stack, true);
                        if self.locks[lock].owner.is_none() {
                            self.grant(v, lock, stack);
                            return;
                        }
                        self.rt.core().cancel(tid, self.locks[lock].id);
                        self.shadow_cancel(v, lock);
                    }
                    Decision::Yield { .. } => {
                        self.shadow_request(v, lock, &frames, stack, false);
                        self.rt.core().cancel(tid, self.locks[lock].id);
                        self.shadow_cancel(v, lock);
                    }
                }
                self.threads[v].pc += 1;
            }
            Op::UnlockIfHeld(LockHandle(lock)) => {
                if !self.threads[v].held.contains(&lock) {
                    self.threads[v].pc += 1;
                    return;
                }
                self.do_unlock(v, lock);
            }
            Op::Unlock(LockHandle(lock)) => {
                self.do_unlock(v, lock);
            }
        }
    }

    fn do_unlock(&mut self, v: usize, lock: usize) {
        let tid = self.threads[v].tid;
        let wake = self.rt.core().release(tid, self.locks[lock].id);
        if let Some(sh) = &mut self.shadow {
            let shadow_wake = sh.core.release(sh.tids[v], self.locks[lock].id);
            if sh.aligned {
                // Map both wake sets to thread indices and compare. Cover
                // choice is tid-order-sensitive, so this is only meaningful
                // when the two engines share the tid numbering.
                let mut a: Vec<usize> = wake
                    .iter()
                    .filter_map(|w| self.threads.iter().position(|t| t.tid == *w))
                    .collect();
                let mut b: Vec<usize> = shadow_wake
                    .iter()
                    .filter_map(|w| sh.tids.iter().position(|t| t == w))
                    .collect();
                a.sort_unstable();
                b.sort_unstable();
                if a != b {
                    sh.divergences.push(format!(
                        "wake divergence: {} releasing {}: sharded wakes {:?} vs reference {:?}",
                        self.threads[v].name, self.locks[lock].name, a, b
                    ));
                }
            }
        }
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
        // Wake yielding threads whose cause was (tid, lock).
        for w in wake {
            if let Some(idx) = self.threads.iter().position(|t| t.tid == w) {
                if !self.threads[idx].woken {
                    self.wakes += 1;
                }
                self.threads[idx].woken = true;
            }
        }
        self.threads[v].pc += 1;
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
                self.drain_shadow();
                self.poll_breaks();
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
                self.drain_shadow();
                last_monitor = self.time;
                self.poll_breaks();
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
                        self.drain_shadow();
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
        self.drain_shadow();
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

    /// Marks yielders whose yield the monitor just broke as eligible.
    fn poll_breaks(&mut self) {
        for v in 0..self.threads.len() {
            if matches!(self.threads[v].state, VState::Yielding(_))
                && self.rt.core().is_yielding(self.threads[v].tid)
            {
                // Still yielding normally.
                continue;
            }
            if matches!(self.threads[v].state, VState::Yielding(_)) {
                // The monitor cleared the yield (break): schedule a resume.
                if !self.threads[v].woken {
                    self.wakes += 1;
                }
                self.threads[v].woken = true;
            }
        }
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
        if let Some(sh) = &self.shadow {
            for &tid in &sh.tids {
                sh.core.unregister_thread(tid);
            }
            sh.core.drain_events(usize::MAX);
        }
        for t in &self.threads {
            self.rt.core().unregister_thread(t.tid);
        }
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
