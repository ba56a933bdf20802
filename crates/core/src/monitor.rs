//! The monitor thread (§5.2 and Figure 1).
//!
//! Periodically drains the per-thread event lanes, replays the events into
//! the full [`Rag`], searches for deadlock and yield cycles, archives new
//! signatures into the persistent history, breaks induced starvation (weak
//! immunity) or requests a restart (strong immunity), and runs the
//! retrospective false-positive analysis that feeds matching-depth
//! calibration (§5.5).
//!
//! When [`Config::prediction`] is set, the monitor additionally feeds the
//! drained acquisitions/releases into a lock-order-graph
//! [`Predictor`] and, after each drain, runs one budgeted prediction pass:
//! feasible order cycles (distinct threads, disjoint gate-lock guard sets)
//! are synthesized into the history as `predicted`-provenance signatures —
//! vaccines archived *before* the deadlock ever fires. They flow through
//! the exact same archival path as detected cycles, so the next match-view
//! republish picks them up and the avoidance engine yields threads away
//! from the pattern on its first approach.
//!
//! The monitor also owns the steady-state rebuild of the avoidance match
//! view: each pass starts by asking the core to republish if the history
//! generation moved, so application threads never rebuild inline on the
//! hot path.
//!
//! Events are per-thread FIFO (a lane is one queue, however many blocks it
//! has grown to), but cross-thread interleaving within one pass follows
//! lane order rather than global enqueue order. The RAG tolerates that:
//! holds are multisets, detection runs only after the full drain, and a
//! deadlocked thread stops producing events, so the graph still converges
//! on exactly the stuck subset (§5.1's lazy-view argument).
//!
//! The monitor is deliberately separable from wall-clock time: the runtime
//! can either spawn it on a dedicated thread with period τ, or call
//! [`Monitor::step`] manually ("embedded mode") — which is how the
//! deterministic thread simulator drives it.
//!
//! # Supervision and degradation
//!
//! The monitor is the immunity runtime's single point of failure, so the
//! runtime supervises it: a panic escaping a pass is caught, counted in
//! [`Stats::monitor_restarts`], and the monitor is rebuilt via
//! [`Monitor::respawn`] — a fresh instance seeded with the RAG snapshot
//! taken at the end of the last *successful* pass that changed it
//! ([`last_good`]; idle passes reuse the snapshot they would only have
//! re-cloned), plus the predictor snapshot cloned at the same moment.
//! Probe state may have been mid-mutation when the pass died, so open
//! probes are abandoned (a missed calibration sample, never a correctness
//! loss); the predictor resumes from its last-good clone so pre-panic lock
//! orderings — and the condensation built over them — survive the restart.
//!
//! After `Config::monitor_restart_budget` consecutive restarts the runtime
//! stops resurrecting detection and enters *degraded mode*
//! ([`Stats::degraded_mode`]): each period it runs [`Monitor::degraded_step`]
//! instead — a pass-through pass that drains and discards events (bounding
//! lane memory), keeps republishing the match view (so avoidance decisions
//! stay sound against the last published history), and skips detection,
//! prediction, starvation breaking and saves. Yielding threads park with
//! the bounded `Config::degraded_yield_wait` instead of waiting on a
//! monitor that will never break their starvation.
//!
//! [`last_good`]: Monitor::respawn

use crate::avoidance::AvoidanceCore;
use crate::config::{Config, Immunity};
use crate::event::{Event, YieldInfo};
use crate::lanes::EventLanes;
use crate::stats::Stats;
use dimmunix_predict::Predictor;
use dimmunix_rag::{LockId, Rag, ThreadId, YieldCause};
use dimmunix_signature::{
    suffix_matches, CalibrationUpdate, CallStack, CycleKind, FrameTable, History, HistoryError,
    Provenance, Signature, StackId, StackTable,
};
use std::collections::HashSet;
use std::sync::Arc;

/// Callback invoked with a detected cycle's signature and participants.
pub type CycleHook = Box<dyn Fn(&Arc<Signature>, &[ThreadId]) + Send + Sync>;

/// Callbacks invoked by the monitor on notable occurrences.
///
/// The deadlock hook is the paper's "application-specific deadlock
/// resolution" extension point (§3) — e.g. a checkpoint/rollback facility
/// could be plugged in here. The restart hook implements strong immunity:
/// the embedding application decides how to restart itself.
#[derive(Default)]
pub struct Hooks {
    /// Called after a deadlock cycle was detected and its signature saved.
    pub on_deadlock: Option<CycleHook>,
    /// Called after an induced-starvation cycle was detected and saved.
    pub on_starvation: Option<CycleHook>,
    /// Called under strong immunity whenever starvation is encountered: the
    /// program should restart.
    pub on_restart_required: Option<Box<dyn Fn() + Send + Sync>>,
}

impl std::fmt::Debug for Hooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hooks")
            .field("on_deadlock", &self.on_deadlock.is_some())
            .field("on_starvation", &self.on_starvation.is_some())
            .field("on_restart_required", &self.on_restart_required.is_some())
            .finish()
    }
}

/// Upper bound on ops collected per false-positive probe.
const PROBE_OP_CAP: usize = 10_000;
/// Upper bound on monitor passes a probe stays open without resolution.
const PROBE_AGE_CAP: u32 = 64;
/// Upper bound on concurrently open probes. Probes are a statistical
/// sampling of avoidances (§5.5); without a cap, a yield storm opens one
/// probe per yield and `feed_probes` — O(open probes) per event — wedges
/// the monitor quadratically.
const PROBE_OPEN_CAP: usize = 512;

/// One retrospective false-positive analysis in flight (§5.5): after an
/// avoidance, log the lock operations of the involved threads (plus the
/// yielded thread after release) and look for lock inversions; none found ⇒
/// the avoidance was likely a false positive.
struct FpProbe {
    sig: Arc<Signature>,
    depth_used: u8,
    /// Resolved `(runtime stack, member stack)` frame pairs, for the
    /// "would it also have matched at depth d?" calibration query.
    binding_frames: Vec<(CallStack, CallStack)>,
    yielder: ThreadId,
    contested: LockId,
    participants: HashSet<ThreadId>,
    /// Locks held by participants when the probe opened (from the RAG).
    initial_holds: Vec<(ThreadId, LockId)>,
    /// Logged operations: `(thread, lock, is_acquire)`.
    ops: Vec<(ThreadId, LockId, bool)>,
    yielder_acquired_target: bool,
    age: u32,
}

impl FpProbe {
    /// Lock-inversion analysis: replays the log and reports whether two
    /// participants ordered some lock pair in opposite ways (the true-
    /// positive witness).
    fn has_inversion(&self) -> bool {
        use std::collections::HashMap;
        let mut held: HashMap<ThreadId, Vec<LockId>> = HashMap::new();
        for &(t, l) in &self.initial_holds {
            held.entry(t).or_default().push(l);
        }
        let mut orders: HashMap<ThreadId, HashSet<(LockId, LockId)>> = HashMap::new();
        for &(t, l, acquire) in &self.ops {
            let h = held.entry(t).or_default();
            if acquire {
                for &a in h.iter() {
                    if a != l {
                        orders.entry(t).or_default().insert((a, l));
                    }
                }
                h.push(l);
            } else if let Some(pos) = h.iter().rposition(|&x| x == l) {
                h.remove(pos);
            }
        }
        for (&t1, pairs) in &orders {
            for &(a, b) in pairs {
                for (&t2, pairs2) in &orders {
                    if t1 != t2 && pairs2.contains(&(b, a)) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Whether this same execution would also have triggered avoidance had
    /// the matching depth been `d` — all instance bindings still match.
    fn would_match_at(&self, d: u8) -> bool {
        self.binding_frames
            .iter()
            .all(|(a, b)| suffix_matches(a, b, d as usize))
    }
}

/// Upper bound on events drained per pass, so a hot producer cannot wedge
/// the monitor.
const DRAIN_CAP: usize = 1 << 20;

/// The monitor state machine.
pub struct Monitor {
    rag: Rag,
    /// RAG snapshot taken at the end of the last successful pass; the
    /// supervisor seeds a restarted monitor from it (see [`Monitor::respawn`]).
    last_good: Rag,
    probes: Vec<FpProbe>,
    /// Lock-order-graph deadlock predictor (`Config::prediction`).
    predictor: Option<Predictor>,
    /// Predictor snapshot taken alongside [`last_good`]: a restarted
    /// monitor resumes prediction from the last consistent state instead
    /// of re-learning every pre-panic lock ordering from scratch.
    ///
    /// [`last_good`]: Monitor::respawn
    last_good_predictor: Option<Predictor>,
    /// Predicted signatures synthesized so far, counted against
    /// `PredictionConfig::max_predicted`. Seeded from the loaded history
    /// so restarts do not re-earn the budget.
    predicted_budget_used: usize,
    config: Config,
    history: Arc<History>,
    frames: Arc<FrameTable>,
    stacks: Arc<StackTable>,
    lanes: Arc<EventLanes>,
    stats: Arc<Stats>,
    hooks: Arc<Hooks>,
    /// Whether the history changed and must be persisted.
    dirty: bool,
    /// Pass counter for sampling the O(bucket-count) occupancy-skew gauge.
    skew_tick: u32,
    last_save_error: Option<HistoryError>,
}

impl Monitor {
    /// Creates the monitor.
    pub fn new(
        config: Config,
        history: Arc<History>,
        frames: Arc<FrameTable>,
        stacks: Arc<StackTable>,
        lanes: Arc<EventLanes>,
        stats: Arc<Stats>,
        hooks: Arc<Hooks>,
    ) -> Self {
        let predictor = config.prediction.clone().map(Predictor::new);
        let predicted_budget_used = if predictor.is_some() {
            history
                .snapshot()
                .iter()
                .filter(|s| s.provenance == Provenance::Predicted)
                .count()
        } else {
            0
        };
        let last_good_predictor = predictor.clone();
        Self {
            rag: Rag::new(),
            last_good: Rag::new(),
            probes: Vec::new(),
            predictor,
            last_good_predictor,
            predicted_budget_used,
            config,
            history,
            frames,
            stacks,
            lanes,
            stats,
            hooks,
            dirty: false,
            skew_tick: 0,
            last_save_error: None,
        }
    }

    /// Most recent failure to persist the history, if any.
    pub fn last_save_error(&self) -> Option<&HistoryError> {
        self.last_save_error.as_ref()
    }

    /// Read-only view of the monitor's RAG (for diagnostics/DOT export).
    pub fn rag(&self) -> &Rag {
        &self.rag
    }

    /// One monitor pass: drain events, update the RAG, detect cycles, save
    /// signatures, break starvation, resolve probes. `waker` is invoked for
    /// every thread whose yield the monitor breaks.
    pub fn step(&mut self, core: &AvoidanceCore, waker: &dyn Fn(ThreadId)) {
        Stats::bump(&self.stats.monitor_passes);
        // Scripted monitor faults: a `Stall` sleeps inside the hook itself;
        // a `Panic` unwinds out of this pass into the runtime's supervisor.
        #[cfg(feature = "fault-inject")]
        if let Some(dimmunix_inject::MonitorFaultKind::Panic) =
            dimmunix_inject::monitor_fault(Stats::get(&self.stats.monitor_passes))
        {
            panic!("dimmunix fault injection: scripted monitor panic");
        }
        // Own the bucket/index rebuild: republish the match view if the
        // history generation moved, so the hot path never rebuilds inline.
        core.refresh_published();
        // Occupancy-skew gauge: track the hottest bucket seen so far.
        // Sampled every 8th pass — the scan is O(bucket count) and loads
        // each bucket's writer-owned length word, so running it every τ
        // would steadily bounce hot writers' cache lines.
        if self.skew_tick.is_multiple_of(8) {
            let hottest = core.occupancy_skew().hottest;
            self.stats
                .hot_bucket_peak
                .fetch_max(hottest, std::sync::atomic::Ordering::Relaxed);
        }
        self.skew_tick = self.skew_tick.wrapping_add(1);
        let mut busy = self.drain_events() > 0
            || self
                .predictor
                .as_ref()
                .is_some_and(Predictor::has_pending_work);
        self.detect_deadlocks();
        // Prediction runs after detection so that when a pattern both
        // fired and was predictable within one pass, the archived
        // signature carries the `detected` provenance and the prediction
        // deduplicates against it (not the other way around).
        self.predict();
        busy |= self.detect_starvation(core, waker);
        self.resolve_probes();
        if self.dirty {
            self.dirty = false;
            if self.history.path().is_some() {
                if let Err(e) = self.history.save(&self.frames, &self.stacks) {
                    self.last_save_error = Some(e);
                }
            }
        }
        // The pass completed: this RAG (and this predictor state) is a
        // consistent restart point. An idle pass — no event applied, no
        // enumeration pending, no yield broken — leaves the RAG as the
        // snapshot already has it and moves only the predictor's aging
        // clock, which a respawned monitor simply runs again; cloning both
        // regardless made every idle tick O(held locks).
        if busy {
            self.last_good = self.rag.clone();
            self.last_good_predictor = self.predictor.clone();
        }
    }

    /// A fresh monitor inheriting this one's wiring (config, history,
    /// tables, lanes, stats, hooks), the RAG snapshot from its last
    /// successful pass, and the predictor snapshot taken at the same
    /// moment — the supervisor's restart path after a panicked pass.
    /// Probe state may have been mid-mutation when the pass died, so it
    /// restarts empty (a missed calibration sample, never a correctness
    /// loss); the predictor resumes from its last-good clone so pre-panic
    /// lock orderings do not have to be re-learned. Every thread in the
    /// RAG snapshot is marked dirty so the first pass re-scans the graph.
    pub(crate) fn respawn(&self) -> Monitor {
        let mut fresh = Monitor::new(
            self.config.clone(),
            Arc::clone(&self.history),
            Arc::clone(&self.frames),
            Arc::clone(&self.stacks),
            Arc::clone(&self.lanes),
            Arc::clone(&self.stats),
            Arc::clone(&self.hooks),
        );
        fresh.rag = self.last_good.clone();
        fresh.rag.mark_all_dirty();
        fresh.last_good = self.last_good.clone();
        fresh.predictor = self.last_good_predictor.clone();
        fresh.last_good_predictor = self.last_good_predictor.clone();
        fresh
    }

    /// Pass-through pass for degraded mode (restart budget exhausted):
    /// drains and discards events so the lanes stay bounded, keeps the
    /// match view republished so avoidance decisions stay sound against
    /// the last published history, and skips detection, prediction,
    /// starvation breaking, probes and saves. Deliberately free of fault
    /// hooks: scripted monitor faults cannot follow the runtime into
    /// degraded mode.
    pub(crate) fn degraded_step(&mut self, core: &AvoidanceCore) {
        Stats::bump(&self.stats.monitor_passes);
        core.refresh_published();
        let lanes = Arc::clone(&self.lanes);
        let mut retired = 0_u64;
        let drained = lanes.drain(DRAIN_CAP, |event| retired += event.outcomes());
        use std::sync::atomic::Ordering::Relaxed;
        self.stats.events_processed.fetch_add(retired, Relaxed);
        self.stats.events_last_drain.store(drained as u64, Relaxed);
        self.stats
            .lane_overflows
            .store(lanes.overflow_count(), Relaxed);
    }

    /// Applies everything queued (up to [`DRAIN_CAP`]); returns how many
    /// lane entries that was.
    fn drain_events(&mut self) -> usize {
        let lanes = Arc::clone(&self.lanes);
        // `events_processed` counts hook outcomes retired, not lane entries
        // (one `Granted` stands for a request, its GO and the acquisition).
        let mut retired = 0_u64;
        let drained = lanes.drain(DRAIN_CAP, |event| {
            retired += event.outcomes();
            self.apply(event);
        });
        use std::sync::atomic::Ordering::Relaxed;
        self.stats.events_processed.fetch_add(retired, Relaxed);
        // Monitor-lag gauges: drain size per pass and peak lane depth, in
        // lane entries, and cumulative blocks a lane had to grow by.
        self.stats.events_last_drain.store(drained as u64, Relaxed);
        self.stats
            .lane_high_water
            .store(lanes.high_water() as u64, Relaxed);
        self.stats
            .lane_overflows
            .store(lanes.overflow_count(), Relaxed);
        drained
    }

    fn apply(&mut self, event: Event) {
        match event {
            Event::Go { t, l, stack, .. } => self.rag.on_go(t, l, stack),
            Event::Yield { t, l, stack, info } => {
                self.rag.on_yield(t, l, stack, info.causes.clone());
                self.open_probe(t, l, &info);
            }
            Event::Granted { t, l, stack, .. } => {
                self.rag.on_granted(t, l, stack);
                self.note_acquired(t, l, stack);
            }
            Event::Acquired { t, l, stack } => {
                self.rag.on_acquired(t, l, stack);
                self.note_acquired(t, l, stack);
            }
            Event::Release { t, l } => {
                self.feed_probes(t, l, false);
                if let Some(p) = &mut self.predictor {
                    p.on_release(t, l);
                }
                self.rag.on_release(t, l);
            }
            Event::Cancel { t, l, .. } => {
                self.rag.on_cancel(t, l);
                // A cancelled yielder will never acquire the contested lock;
                // close its probes by aging them out immediately.
                for p in &mut self.probes {
                    if p.yielder == t && p.contested == l {
                        p.age = PROBE_AGE_CAP;
                    }
                }
            }
            Event::ThreadExit { t } => {
                if let Some(p) = &mut self.predictor {
                    p.on_thread_exit(t);
                }
                self.rag.on_thread_exit(t);
            }
        }
    }

    /// What an acquisition feeds besides the RAG: the lock-order predictor
    /// and the open false-positive probes.
    fn note_acquired(&mut self, t: ThreadId, l: LockId, stack: StackId) {
        if let Some(p) = &mut self.predictor {
            p.on_acquired(t, l, stack);
        }
        self.feed_probes(t, l, true);
    }

    /// One budgeted prediction pass: archives every feasible order cycle
    /// (within the `max_predicted` budget) as a `predicted`-provenance
    /// deadlock signature — the proactive analog of `detect_deadlocks`.
    fn predict(&mut self) {
        let Some(predictor) = &mut self.predictor else {
            return;
        };
        let cycles = predictor.pass();
        use std::sync::atomic::Ordering::Relaxed;
        let pstats = predictor.stats();
        self.stats
            .prediction_guard_suppressed
            .store(pstats.guard_suppressed, Relaxed);
        self.stats
            .prediction_edges
            .store(pstats.edge_instances, Relaxed);
        self.stats
            .prediction_deferred
            .store(pstats.deferred, Relaxed);
        self.stats.scc_merges.store(pstats.scc_merges, Relaxed);
        self.stats
            .scc_component_peak
            .store(pstats.scc_component_peak, Relaxed);
        self.stats
            .prediction_edges_retired
            .store(pstats.edges_retired, Relaxed);
        let max_predicted = predictor.config().max_predicted;
        // Coalesce the whole pass's discoveries into ONE generation bump:
        // the early-run predictor can surface many feasible cycles in a
        // single pass, and archiving them one by one used to cost one
        // generation bump — and one downstream rebuild — each. Batch
        // construction gates the budget conservatively (a deduplicated
        // item wastes its tentative slot within this pass); the budget
        // itself only counts signatures actually added.
        let mut batch = Vec::new();
        for cycle in cycles {
            Stats::bump(&self.stats.cycles_predicted);
            if self.predicted_budget_used + batch.len() >= max_predicted {
                continue;
            }
            batch.push((
                CycleKind::Deadlock,
                cycle.labels,
                self.config.default_depth,
                Provenance::Predicted,
            ));
        }
        if batch.is_empty() {
            return;
        }
        let history = Arc::clone(&self.history);
        let added = history.add_batch_with_provenance(batch, |sig| {
            Stats::bump(&self.stats.predicted_signatures);
            Stats::bump(&self.stats.signatures_added);
            if let Some(cal_cfg) = &self.config.calibration {
                // Pre-visibility finalization: the calibration start depth
                // lands before snapshot readers can see the signature, so
                // no second (invalidating) touch is needed.
                sig.set_depth(sig.calibration().start(cal_cfg));
            }
        });
        if !added.is_empty() {
            self.predicted_budget_used += added.len();
            self.dirty = true;
        }
    }

    fn open_probe(&mut self, yielder: ThreadId, contested: LockId, info: &YieldInfo) {
        let Some(sig) = self.history.get(info.sig) else {
            return;
        };
        let mut participants: HashSet<ThreadId> = info.causes.iter().map(|c| c.thread).collect();
        participants.insert(yielder);
        let initial_holds = self.initial_holds(&participants, &info.causes);
        let binding_frames: Vec<(CallStack, CallStack)> = info
            .bindings
            .iter()
            .map(|&(a, b)| (self.stacks.resolve(a), self.stacks.resolve(b)))
            .collect();
        // Figure 9 structural accounting: a yield is a (structural) true
        // positive iff its bindings also match at the full program depth.
        if let Some(d) = self.config.structural_fp_reference_depth {
            let full = binding_frames
                .iter()
                .all(|(a, b)| suffix_matches(a, b, d as usize));
            if full {
                Stats::bump(&self.stats.structural_true_positives);
            } else {
                Stats::bump(&self.stats.structural_false_positives);
            }
        }
        if self.probes.len() >= PROBE_OPEN_CAP {
            // Sampling is saturated; skip this avoidance. (The structural
            // Figure 9 accounting above is independent and already done.)
            return;
        }
        self.probes.push(FpProbe {
            sig,
            depth_used: info.depth_used,
            binding_frames,
            yielder,
            contested,
            participants,
            initial_holds,
            ops: Vec::new(),
            yielder_acquired_target: false,
            age: 0,
        });
    }

    fn initial_holds(
        &self,
        participants: &HashSet<ThreadId>,
        causes: &[YieldCause],
    ) -> Vec<(ThreadId, LockId)> {
        // The cause tuples name the locks that pin the yield; the RAG (even
        // if slightly stale) supplies everything else the participants held
        // at probe-open time — in particular the yielder's own holds, which
        // are one side of any future inversion.
        let mut holds: Vec<(ThreadId, LockId)> =
            causes.iter().map(|c| (c.thread, c.lock)).collect();
        for &t in participants {
            for l in self.rag.held_locks(t) {
                holds.push((t, l));
            }
        }
        holds.sort_unstable_by_key(|&(t, l)| (t, l));
        holds.dedup();
        holds
    }

    fn feed_probes(&mut self, t: ThreadId, l: LockId, acquire: bool) {
        for p in &mut self.probes {
            if !p.participants.contains(&t) {
                continue;
            }
            if p.ops.len() < PROBE_OP_CAP {
                p.ops.push((t, l, acquire));
            } else {
                p.age = PROBE_AGE_CAP;
            }
            if t == p.yielder && l == p.contested {
                if acquire {
                    p.yielder_acquired_target = true;
                } else if p.yielder_acquired_target {
                    // Critical section completed: probe is decidable.
                    p.age = PROBE_AGE_CAP;
                }
            }
        }
    }

    fn detect_deadlocks(&mut self) {
        let cycles = self.rag.find_deadlock_cycles();
        for cycle in cycles {
            Stats::bump(&self.stats.deadlocks_detected);
            let sig = self.save_signature(CycleKind::Deadlock, cycle.labels.clone());
            if let Some(hook) = &self.hooks.on_deadlock {
                hook(&sig, &cycle.threads);
            }
        }
    }

    /// Returns whether a yield was broken (the one way this step edits the
    /// RAG).
    fn detect_starvation(&mut self, core: &AvoidanceCore, waker: &dyn Fn(ThreadId)) -> bool {
        let mut broke = false;
        let cycles = self.rag.find_yield_cycles();
        for cycle in cycles {
            Stats::bump(&self.stats.starvations_detected);
            let sig = self.save_signature(CycleKind::Starvation, cycle.labels.clone());
            let threads: Vec<ThreadId> = cycle.threads.iter().map(|s| s.thread).collect();
            if let Some(hook) = &self.hooks.on_starvation {
                hook(&sig, &threads);
            }
            match self.config.immunity {
                Immunity::Weak => {
                    // Break the starvation: cancel the yield of the starved
                    // thread holding the most locks (§3).
                    if let Some(victim) = cycle
                        .threads
                        .iter()
                        .filter(|s| s.yielding)
                        .max_by_key(|s| s.holds)
                    {
                        if core.break_yield(victim.thread) {
                            // Mirror the break in the monitor's RAG so the
                            // starvation is not re-detected before the
                            // thread's own Go event arrives.
                            self.rag.on_cancel(victim.thread, LockId(u64::MAX));
                            waker(victim.thread);
                            broke = true;
                        }
                    }
                }
                Immunity::Strong => {
                    if let Some(hook) = &self.hooks.on_restart_required {
                        hook();
                    }
                }
            }
        }
        broke
    }

    /// Saves (or finds) the signature for a detected cycle and starts its
    /// calibration when enabled. Uses the batched add so archival costs a
    /// single generation bump (the calibration start depth is finalized
    /// pre-visibility instead of via a second invalidating touch) — which
    /// also keeps the bump a pure append, i.e. delta-rebuildable.
    fn save_signature(&mut self, kind: CycleKind, labels: Vec<StackId>) -> Arc<Signature> {
        let history = Arc::clone(&self.history);
        let added = history.add_batch_with_provenance(
            vec![(
                kind,
                labels.clone(),
                self.config.default_depth,
                Provenance::default_for(kind),
            )],
            |sig| {
                Stats::bump(&self.stats.signatures_added);
                if let Some(cal_cfg) = &self.config.calibration {
                    sig.set_depth(sig.calibration().start(cal_cfg));
                }
            },
        );
        match added.into_iter().next() {
            Some(sig) => {
                self.dirty = true;
                sig
            }
            None => self
                .history
                .find_by_stacks(&labels)
                .expect("duplicate add implies the signature exists"),
        }
    }

    fn resolve_probes(&mut self) {
        let mut due = Vec::new();
        let mut keep = Vec::new();
        for mut p in self.probes.drain(..) {
            p.age += 1;
            if p.age >= PROBE_AGE_CAP {
                due.push(p);
            } else {
                keep.push(p);
            }
        }
        self.probes = keep;
        for p in due {
            let was_fp = !p.has_inversion();
            if was_fp {
                Stats::bump(&self.stats.false_positives);
            } else {
                Stats::bump(&self.stats.true_positives);
            }
            if let Some(cal_cfg) = &self.config.calibration {
                let update = {
                    let mut cal = p.sig.calibration();
                    cal.record_outcome(cal_cfg, p.depth_used, was_fp, |d| p.would_match_at(d))
                };
                match update {
                    CalibrationUpdate::None => {}
                    CalibrationUpdate::SetDepth(d) => {
                        p.sig.set_depth(d);
                        self.history.touch();
                        self.dirty = true;
                    }
                    CalibrationUpdate::Finished { depth, fp_rate } => {
                        p.sig.set_depth(depth);
                        // §8: a recalibration concluding 100% false positives
                        // marks the signature obsolete — discard it.
                        let recalibrated = p.sig.calibration().completed_calibrations() >= 2;
                        if fp_rate >= 1.0 && recalibrated {
                            self.history.remove(p.sig.id);
                        }
                        self.history.touch();
                        self.dirty = true;
                    }
                }
            }
        }
    }

    /// Restarts calibration for every signature — the §8 "after every
    /// upgrade" rule, also exposed through the runtime API.
    pub fn recalibrate_all(&mut self) {
        let Some(cal_cfg) = &self.config.calibration else {
            return;
        };
        for sig in self.history.snapshot().iter() {
            let d = sig.calibration().start(cal_cfg);
            sig.set_depth(d);
        }
        self.history.touch();
        self.dirty = true;
    }
}

impl std::fmt::Debug for Monitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Monitor")
            .field("rag", &self.rag)
            .field("open_probes", &self.probes.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dimmunix_predict::PredictionConfig;

    /// Idle passes skip the `last_good` clones; the snapshot a respawn
    /// starts from must still be the busy pass's.
    #[test]
    fn a_respawn_after_idle_passes_keeps_the_busy_pass_snapshot() {
        let config = Config {
            history_path: None,
            prediction: Some(PredictionConfig::default()),
            ..Config::default()
        };
        let history = Arc::new(History::new());
        let frames = Arc::new(FrameTable::new());
        let stacks = Arc::new(StackTable::new());
        let lanes = Arc::new(EventLanes::new(
            config.max_threads,
            crate::lanes::BLOCK_CAPACITY,
        ));
        let stats = Arc::new(Stats::new());
        let core = AvoidanceCore::new(
            config.clone(),
            Arc::clone(&history),
            Arc::clone(&stacks),
            Arc::clone(&lanes),
            Arc::clone(&stats),
        );
        let mut monitor = Monitor::new(
            config,
            history,
            Arc::clone(&frames),
            Arc::clone(&stacks),
            lanes,
            stats,
            Arc::new(Hooks::default()),
        );

        // Busy pass: `t` nests b inside a — two hold edges, one order edge.
        let t = core.register_thread().unwrap();
        let (a, b) = (LockId(1), LockId(2));
        let site = [frames.intern("f", "m.rs", 1)];
        let stack = stacks.intern(&site);
        for l in [a, b] {
            core.request(t, l, &site, stack);
            core.acquired(t, l, stack);
        }
        monitor.step(&core, &|_| {});
        let edges = |m: &Monitor| m.predictor.as_ref().unwrap().stats().edge_instances;
        assert_eq!(monitor.rag.holds_of(t), 2);
        assert_eq!(edges(&monitor), 1);

        for _ in 0..3 {
            monitor.step(&core, &|_| {});
        }
        let fresh = monitor.respawn();
        assert_eq!(fresh.rag.held_locks(t), monitor.rag.held_locks(t));
        assert_eq!(fresh.rag.holds_of(t), 2);
        assert_eq!(edges(&fresh), 1);
    }
}
