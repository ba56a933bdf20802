//! The monitor thread (§5.2 and Figure 1).
//!
//! Periodically drains the per-thread event lanes, replays the events into
//! the full [`Rag`], claims the quiet holds its waiters wait for (the hold
//! edges no event carried, "Quiet holds" in `avoidance/record.rs`), searches
//! for deadlock and yield cycles, archives new
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
//! Events are per-thread FIFO (a lane is one queue, which a drain swaps out
//! and applies with no lane lock held), but cross-thread interleaving
//! within one pass follows lane order rather than global enqueue order. The
//! RAG tolerates that: holds are multisets, detection runs only after the
//! full drain, and a deadlocked thread stops producing events, so the graph
//! still converges on exactly the stuck subset (§5.1's lazy-view argument).
//! A drain stops at the highest lane made so far.
//!
//! The RAG is also the one record of holds the false-positive probes read:
//! at each acquisition by a probe's participant, the probe notes which
//! locks the graph shows that thread holding.
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
//! `Monitor::respawn` — a fresh instance seeded with the RAG snapshot
//! taken at the end of the last *successful* pass that changed it
//! (`last_good`, refreshed in place with `clone_from`; idle passes keep
//! the snapshot they would only have copied again), plus the predictor as
//! it stood at that same moment.
//! Probe state may have been mid-mutation when the pass died, so open
//! probes are abandoned (a missed calibration sample, never a correctness
//! loss); the predictor is restored so pre-panic lock orderings — and the
//! condensation built over them — survive the restart. The history's
//! "not saved yet" flag survives too, so a vaccine archived by the pass
//! that died still reaches the file at the next pass.
//!
//! The predictor's restart point is not a clone per busy pass, which
//! would cost every pass the whole lock-order graph, but a rarely
//! refreshed checkpoint plus a log of what was fed since
//! (`LoggedPredictor`), replayed on respawn under the predictor's
//! determinism contract ([`Predictor`]). The log does not copy what it is
//! fed: it keeps the lane buffers the drain swapped out, events and all,
//! and hands the lanes spare ones in their place; only a batch that fills
//! less than half its buffer is copied, into the log's last block. One
//! function (`Fed::of`) says what an event feeds the predictor, for the
//! live feed and the replay alike; the inputs no lane event carries
//! (claimed quiet holds, passes) are logged beside the events, in feed
//! order. A refresh copies the live predictor's flat buffers into the
//! checkpoint's own (`clone_from`), so it allocates only where the live
//! predictor has outgrown them, and the emptied blocks become spares.
//!
//! After `MONITOR_RESTART_BUDGET` consecutive restarts the runtime
//! stops resurrecting detection and enters *degraded mode*
//! ([`Stats::degraded_mode`]): each period it runs `Monitor::degraded_step`
//! instead — a pass-through pass that drains and discards events (bounding
//! lane memory), keeps republishing the match view (so avoidance decisions
//! stay sound against the last published history), and skips detection,
//! prediction, starvation breaking and saves. Yielding threads park with
//! the bounded `DEGRADED_YIELD_WAIT` instead of waiting on a monitor
//! that will never break their starvation.

use crate::avoidance::AvoidanceCore;
use crate::config::{Config, Immunity, DEFAULT_DEPTH};
use crate::event::{Event, YieldInfo};
use crate::lanes::{Batch, EventLanes};
use crate::stats::Stats;
use dimmunix_predict::{PredictedCycle, Predictor};
use dimmunix_rag::{LockId, Rag, ThreadId};
use dimmunix_signature::{
    suffix_matches, CalibrationUpdate, CallStack, CycleKind, FrameTable, History, HistoryError,
    IdSet, Provenance, Signature, StackId, StackTable,
};
use std::collections::VecDeque;
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

/// Upper bound on lock orders recorded per false-positive probe.
const PROBE_ORDER_CAP: usize = 10_000;
/// Upper bound on monitor passes a probe stays open without resolution.
const PROBE_AGE_CAP: u32 = 64;
/// Upper bound on concurrently open probes. Probes are a statistical
/// sampling of avoidances (§5.5); without a cap, a yield storm opens one
/// probe per yield and `feed_probes` — O(open probes) per event — wedges
/// the monitor quadratically.
const PROBE_OPEN_CAP: usize = 512;

/// One retrospective false-positive analysis in flight (§5.5): after an
/// avoidance, record the lock orders of the involved threads (plus the
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
    participants: IdSet<ThreadId>,
    /// `(t, a, l)`: participant `t` acquired `l` while the RAG showed it
    /// holding `a`.
    orders: IdSet<(ThreadId, LockId, LockId)>,
    yielder_acquired_target: bool,
    age: u32,
}

impl FpProbe {
    /// Lock-inversion analysis: whether two participants recorded some lock
    /// pair in opposite orders (the true-positive witness).
    fn has_inversion(&self) -> bool {
        self.orders.iter().any(|&(t, a, l)| {
            self.participants
                .iter()
                .any(|&u| u != t && self.orders.contains(&(u, l, a)))
        })
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

/// One predictor input, as the monitor fed it.
#[derive(Clone, Copy, Debug)]
enum Fed {
    Acquired(ThreadId, LockId, StackId),
    Release(ThreadId, LockId),
    ThreadExit(ThreadId),
    /// `n` consecutive [`Predictor::pass`] calls.
    Passes(u64),
}

impl Fed {
    /// What applying `event` feeds the predictor, if anything. The live
    /// feed and a respawn's replay both map events through this, so the two
    /// cannot disagree.
    fn of(event: &Event) -> Option<Fed> {
        match *event {
            Event::Granted { t, l, stack, .. } | Event::Acquired { t, l, stack } => {
                Some(Fed::Acquired(t, l, stack))
            }
            Event::Release { t, l } => Some(Fed::Release(t, l)),
            Event::ThreadExit { t } => Some(Fed::ThreadExit(t)),
            Event::Go { .. } | Event::Yield { .. } | Event::Cancel { .. } => None,
        }
    }

    /// Applies this input to `p`; returns the cycles its passes found.
    fn apply(self, p: &mut Predictor) -> Vec<PredictedCycle> {
        match self {
            Fed::Acquired(t, l, stack) => p.on_acquired(t, l, stack),
            Fed::Release(t, l) => p.on_release(t, l),
            Fed::ThreadExit(t) => p.on_thread_exit(t),
            Fed::Passes(n) => return (0..n).flat_map(|_| p.pass()).collect(),
        }
        Vec::new()
    }
}

/// How far the log reaches: now (`LoggedPredictor::logged`), or at the
/// last commit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Mark {
    /// Events in `LoggedPredictor::blocks`.
    events: usize,
    /// Entries in `LoggedPredictor::fed`.
    fed: usize,
    /// Predictor inputs: events that feed one, and `fed` entries.
    inputs: u64,
}

/// The live predictor and its restart point: `checkpoint`, a copy
/// refreshed rarely, plus a log of what was fed since. The log up to
/// `committed` — the end of the last busy pass — is the state a respawn
/// restores ([`LoggedPredictor::restored`]); what follows is pending.
///
/// The log is two sequences. `blocks` holds every event the monitor applied
/// since the checkpoint, in order, in the lane buffers the drain produced:
/// a batch that fills at least half its buffer moves into the log whole,
/// and the lane is handed a spare in its place; a sparser one is copied
/// into the last block, or into a fresh one when it does not fit. So the
/// log holds no event twice. A kept buffer is at least half full, and a
/// block left partly empty is one that a kept buffer of at least half a
/// lane's block followed, so the log takes at most 2 × 32 B per event for
/// a busy lane's buffers, and 4 × 32 B in the worst interleaving. `fed`
/// holds the inputs no lane event carries — claimed quiet holds, and
/// passes — each with the number of events logged before it, so a replay
/// interleaves the two in feed order. Both map to predictor inputs through
/// [`Fed::of`], live and on replay alike.
///
/// A busy pass commits. Once the committed log holds more inputs than a
/// copy of the live predictor copies ([`Predictor::clone_len`]: its
/// arenas, dead space included, and its maps' tables), replaying it would
/// cost about as much as a copy, so the live predictor is copied into the
/// checkpoint's buffers (`clone_from`) and the log empties: copy work is
/// amortised O(1) per input, and the log never exceeds one checkpoint's
/// size by more than one pass's inputs. Every emptied block becomes a
/// spare, shrunk to a lane's block. A block is allocated only when no
/// spare is left, so the spares and the log's blocks together never
/// outnumber the most blocks the log ever held: memory it held already.
/// A stretch between checkpoints that logs no more blocks than that takes
/// every lane buffer and tail block from the spares and allocates none.
/// Idle passes are never committed, and consecutive passes merge into one
/// entry, so an idle monitor's pending log stays one `Passes(n)`.
struct LoggedPredictor {
    live: Predictor,
    checkpoint: Predictor,
    blocks: Vec<VecDeque<Event>>,
    fed: Vec<(usize, Fed)>,
    /// The log's length now.
    logged: Mark,
    /// The log's length at the last commit.
    committed: Mark,
    /// Emptied blocks, handed to the lanes for the buffers the log keeps
    /// and opened as tail blocks.
    spares: Vec<VecDeque<Event>>,
    /// A lane's block ([`EventLanes::block_capacity`]): the size of a
    /// spare.
    block_capacity: usize,
}

impl LoggedPredictor {
    fn new(predictor: Predictor, block_capacity: usize) -> Self {
        Self {
            checkpoint: predictor.clone(),
            live: predictor,
            blocks: Vec::new(),
            fed: Vec::new(),
            logged: Mark::default(),
            committed: Mark::default(),
            spares: Vec::new(),
            block_capacity,
        }
    }

    /// Feeds the live predictor what `event` carries, if anything; the
    /// event itself is logged with its batch ([`LoggedPredictor::log`]).
    fn feed_event(&mut self, event: &Event) {
        if let Some(input) = Fed::of(event) {
            input.apply(&mut self.live);
            self.logged.inputs += 1;
        }
    }

    /// Logs a batch whose events were all just fed ([`Self::feed_event`]),
    /// keeping its buffer when the events fill at least half of it.
    fn log(&mut self, batch: Batch<'_>) {
        let n = batch.len();
        self.logged.events += n;
        if batch.is_whole() && 2 * n >= batch.capacity() {
            let spare = self.spares.pop().unwrap_or_default();
            self.blocks.push(batch.swap_whole(spare));
            return;
        }
        match self.blocks.last_mut() {
            Some(tail) if tail.capacity() - tail.len() >= n => tail.extend(batch),
            _ => {
                let mut block = self
                    .spares
                    .pop()
                    .unwrap_or_else(|| VecDeque::with_capacity(self.block_capacity));
                block.extend(batch);
                self.blocks.push(block);
            }
        }
    }

    /// Applies an input no lane event carries, and logs it.
    fn feed(&mut self, input: Fed) -> Vec<PredictedCycle> {
        let cycles = input.apply(&mut self.live);
        let at = self.logged.events;
        match (input, self.fed.last_mut()) {
            (Fed::Passes(n), Some((last_at, Fed::Passes(m))))
                if *last_at == at && self.logged.fed > self.committed.fed =>
            {
                *m += n;
            }
            _ => {
                self.fed.push((at, input));
                self.logged.fed += 1;
                self.logged.inputs += 1;
            }
        }
        cycles
    }

    /// Makes the live state the restart point (end of a busy pass).
    fn commit(&mut self) {
        self.committed = self.logged;
        if self.committed.inputs > self.live.clone_len() {
            self.checkpoint.clone_from(&self.live);
            for mut block in self.blocks.drain(..) {
                block.clear();
                block.shrink_to(self.block_capacity);
                self.spares.push(block);
            }
            self.fed.clear();
            self.logged = Mark::default();
            self.committed = Mark::default();
        }
    }

    /// Inputs logged since the last commit: events and `fed` entries.
    #[cfg(test)]
    fn pending(&self) -> usize {
        self.logged.events - self.committed.events + self.logged.fed - self.committed.fed
    }

    /// The predictor as it stood at the last commit, with the same
    /// committed log (its events in one block).
    fn restored(&self) -> Self {
        let mut live = self.checkpoint.clone();
        let committed = self.committed;
        let events: VecDeque<Event> = self
            .blocks
            .iter()
            .flatten()
            .take(committed.events)
            .cloned()
            .collect();
        let fed = &self.fed[..committed.fed];
        let mut next = fed.iter().peekable();
        // A replayed pass's cycles went to the history when it first ran.
        for (i, event) in events.iter().enumerate() {
            while let Some((_, input)) = next.next_if(|&&(at, _)| at == i) {
                input.apply(&mut live);
            }
            if let Some(input) = Fed::of(event) {
                input.apply(&mut live);
            }
        }
        for (_, input) in next {
            input.apply(&mut live);
        }
        Self {
            live,
            checkpoint: self.checkpoint.clone(),
            blocks: if events.is_empty() {
                Vec::new()
            } else {
                vec![events]
            },
            fed: fed.to_vec(),
            logged: committed,
            committed,
            spares: Vec::new(),
            block_capacity: self.block_capacity,
        }
    }
}

/// The monitor state machine.
pub struct Monitor {
    rag: Rag,
    /// RAG snapshot taken at the end of the last successful pass; the
    /// supervisor seeds a restarted monitor from it (see [`Monitor::respawn`]).
    last_good: Rag,
    probes: Vec<FpProbe>,
    /// Lock-order-graph deadlock predictor (`Config::prediction`), with
    /// its restart point: a checkpoint and the inputs fed since, which a
    /// restarted monitor replays to resume prediction from the end of the
    /// last busy pass instead of re-learning every pre-panic lock ordering.
    predictor: Option<LoggedPredictor>,
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
        let predictor = config
            .prediction
            .clone()
            .map(|cfg| LoggedPredictor::new(Predictor::new(cfg), lanes.block_capacity()));
        let predicted_budget_used = if predictor.is_some() {
            history
                .snapshot()
                .iter()
                .filter(|s| s.provenance == Provenance::Predicted)
                .count()
        } else {
            0
        };
        Self {
            rag: Rag::new(),
            last_good: Rag::new(),
            probes: Vec::new(),
            predictor,
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
                .is_some_and(|p| p.live.has_pending_work());
        busy |= self.claim_quiet_holds(core);
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
        // clock, which a respawned monitor simply runs again; copying the
        // RAG regardless made every idle tick O(held locks). The copy goes
        // into the snapshot's own tables. The predictor is not copied here
        // at all: the commit only marks how far its log reaches, and copies
        // it once the log outgrows it.
        if busy {
            self.last_good.clone_from(&self.rag);
            if let Some(p) = &mut self.predictor {
                p.commit();
            }
        }
    }

    /// A fresh monitor inheriting this one's wiring (config, history,
    /// tables, lanes, stats, hooks), the RAG snapshot from its last
    /// successful pass, the predictor as it stood at the end of the last
    /// busy pass ([`LoggedPredictor::restored`]) and the unsaved-history
    /// flag — the supervisor's restart path after a panicked pass. Probe
    /// state may have been mid-mutation when the pass died, so it restarts
    /// empty (a missed calibration sample, never a correctness loss). A
    /// signature the dead pass archived has not reached the file yet; the
    /// inherited flag makes the next pass save it. Every thread in the RAG
    /// snapshot is marked dirty so the first pass re-scans the graph.
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
        fresh.last_good.clone_from(&fresh.rag);
        fresh.rag.mark_all_dirty();
        fresh.predictor = self.predictor.as_ref().map(LoggedPredictor::restored);
        fresh.dirty = self.dirty;
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
        self.drain_with(|_, batch| batch.events().map(Event::outcomes).sum());
    }

    /// Applies everything queued (up to [`DRAIN_CAP`]), and logs it for the
    /// predictor's restart point; returns how many lane entries that was.
    fn drain_events(&mut self) -> usize {
        self.drain_with(|monitor, batch| {
            let mut retired = 0;
            for event in batch.events() {
                retired += event.outcomes();
                monitor.apply(event);
            }
            if let Some(p) = &mut monitor.predictor {
                p.log(batch);
            }
            retired
        })
    }

    /// Hands everything queued (up to [`DRAIN_CAP`]) to `apply`, one lane's
    /// batch at a time, and does the accounting both passes share; returns
    /// how many lane entries that was. `apply` returns how many hook
    /// outcomes the batch retired.
    fn drain_with(&mut self, mut apply: impl FnMut(&mut Self, Batch<'_>) -> u64) -> usize {
        let lanes = Arc::clone(&self.lanes);
        // `events_processed` counts hook outcomes retired, not lane entries
        // (one `Granted` stands for a request, its GO and the acquisition).
        let mut retired = 0_u64;
        let drained = lanes.drain(DRAIN_CAP, |batch| retired += apply(self, batch));
        use std::sync::atomic::Ordering::Relaxed;
        self.stats.events_processed.fetch_add(retired, Relaxed);
        // Monitor-lag gauges: drain size per pass and peak lane depth, in
        // lane entries, and cumulative pushes that grew a lane past a block.
        self.stats.events_last_drain.store(drained as u64, Relaxed);
        self.stats
            .lane_high_water
            .store(lanes.high_water() as u64, Relaxed);
        self.stats
            .lane_overflows
            .store(lanes.overflow_count(), Relaxed);
        drained
    }

    /// Draws the hold edge of every quiet hold someone waits for
    /// (`avoidance/record.rs`, "Quiet holds"), as the `Granted` it stands in
    /// for would have, and retires that grant's three outcomes. Returns
    /// whether it claimed any.
    fn claim_quiet_holds(&mut self, core: &AvoidanceCore) -> bool {
        let awaited = self.rag.awaited_unheld();
        if awaited.is_empty() {
            return false;
        }
        let claims = core.claim_quiet(&awaited);
        for &(t, l, stack) in &claims {
            self.rag.on_granted(t, l, stack);
            if let Some(p) = &mut self.predictor {
                p.feed(Fed::Acquired(t, l, stack));
            }
            self.feed_probes(t, l, true);
        }
        self.stats.events_processed.fetch_add(
            3 * claims.len() as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
        !claims.is_empty()
    }

    /// Applies one drained event to the RAG, the predictor and the open
    /// probes.
    fn apply(&mut self, event: &Event) {
        if let Some(p) = &mut self.predictor {
            p.feed_event(event);
        }
        match *event {
            Event::Go { t, l, stack, .. } => self.rag.on_go(t, l, stack),
            Event::Yield {
                t,
                l,
                stack,
                ref info,
            } => {
                self.rag.on_yield(t, l, stack, info.causes.clone());
                self.open_probe(t, l, info);
            }
            Event::Granted { t, l, stack, .. } => {
                self.rag.on_granted(t, l, stack);
                self.feed_probes(t, l, true);
            }
            Event::Acquired { t, l, stack } => {
                self.rag.on_acquired(t, l, stack);
                self.feed_probes(t, l, true);
            }
            Event::Release { t, l } => {
                self.feed_probes(t, l, false);
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
            Event::ThreadExit { t } => self.rag.on_thread_exit(t),
        }
    }

    /// One budgeted prediction pass: archives every feasible order cycle
    /// (within the `max_predicted` budget) as a `predicted`-provenance
    /// deadlock signature — the proactive analog of `detect_deadlocks`.
    fn predict(&mut self) {
        let Some(predictor) = &mut self.predictor else {
            return;
        };
        let cycles = predictor.feed(Fed::Passes(1));
        use std::sync::atomic::Ordering::Relaxed;
        let pstats = predictor.live.stats();
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
        let max_predicted = predictor.live.config().max_predicted;
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
                DEFAULT_DEPTH,
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
        let mut participants: IdSet<ThreadId> = info.causes.iter().map(|c| c.thread).collect();
        participants.insert(yielder);
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
            orders: IdSet::default(),
            yielder_acquired_target: false,
            age: 0,
        });
    }

    /// Tells the open probes that `t` acquired (or released) `l`. An
    /// acquisition, already drawn in the RAG, records one order per other
    /// lock the RAG shows `t` holding: the one copy of who holds what.
    fn feed_probes(&mut self, t: ThreadId, l: LockId, acquire: bool) {
        let mut held = None;
        for p in &mut self.probes {
            if !p.participants.contains(&t) {
                continue;
            }
            if acquire {
                let held = held.get_or_insert_with(|| self.rag.held_locks(t));
                for &a in held.iter().filter(|&&a| a != l) {
                    if p.orders.len() < PROBE_ORDER_CAP {
                        p.orders.insert((t, a, l));
                    } else {
                        p.age = PROBE_AGE_CAP;
                    }
                }
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
                DEFAULT_DEPTH,
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

    /// An engine and a monitor wired to one history, one set of lanes and
    /// one set of counters, with prediction on.
    fn wired() -> (AvoidanceCore, Monitor, Arc<FrameTable>, Arc<StackTable>) {
        wired_with(PredictionConfig::default())
    }

    /// [`wired`] with a predictor configured as `prediction`.
    fn wired_with(
        prediction: PredictionConfig,
    ) -> (AvoidanceCore, Monitor, Arc<FrameTable>, Arc<StackTable>) {
        let config = Config {
            history_path: None,
            prediction: Some(prediction),
            ..Config::default()
        };
        let history = Arc::new(History::new());
        let frames = Arc::new(FrameTable::new());
        let stacks = Arc::new(StackTable::new());
        let lanes = Arc::new(EventLanes::new(
            crate::config::MAX_THREADS,
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
        let monitor = Monitor::new(
            config,
            history,
            Arc::clone(&frames),
            Arc::clone(&stacks),
            lanes,
            stats,
            Arc::new(Hooks::default()),
        );
        (core, monitor, frames, stacks)
    }

    /// A degraded pass does the same drain accounting as a full one, the
    /// peak lane depth included.
    #[test]
    fn a_degraded_pass_records_the_lane_high_water() {
        let (core, mut monitor, _, _) = wired();
        let t = core.register_thread().unwrap();
        for l in 0..5 {
            monitor
                .lanes
                .push(t.0 as usize, Event::Release { t, l: LockId(l) });
        }
        monitor.degraded_step(&core);
        let stats = monitor.stats.snapshot();
        assert_eq!(stats.lane_high_water, 5);
        assert_eq!(stats.events_last_drain, 5);
        assert_eq!(stats.events_processed, 5);
    }

    /// Idle passes skip the `last_good` clones; the snapshot a respawn
    /// starts from must still be the busy pass's.
    #[test]
    fn a_respawn_after_idle_passes_keeps_the_busy_pass_snapshot() {
        let (core, mut monitor, frames, stacks) = wired();

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
        let edges = |m: &Monitor| m.predictor.as_ref().unwrap().live.stats().edge_instances;
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

    /// A respawn restores the predictor exactly as it stood at the end of
    /// the last busy pass — `Debug` dump for dump — whether the restart
    /// point is a checkpoint just taken or a checkpoint plus a replayed
    /// log, and however many idle passes (which age locks) ran since.
    #[test]
    fn a_respawn_restores_the_predictor_of_the_last_busy_pass() {
        let (core, mut monitor, frames, stacks) = wired_with(PredictionConfig {
            lock_retire_after: 3,
            ..PredictionConfig::default()
        });
        let (site, s) = site(&frames, &stacks);
        let dump = |m: &Monitor| format!("{:?}", m.predictor.as_ref().unwrap().live);
        let mut threads = [
            core.register_thread().unwrap(),
            core.register_thread().unwrap(),
        ];
        let mut busy_dump = dump(&monitor);
        let (mut checkpoints, mut replayed) = (0, 0);
        for round in 0..160_u64 {
            let idle_run = round % 4 == 3;
            if !idle_run {
                // Nested, so published: three acquisitions in lock order.
                let t = threads[(round % 2) as usize];
                let first = round % 5;
                for l in first..first + 3 {
                    core.request(t, LockId(l), &site, s);
                    core.acquired(t, LockId(l), s);
                }
                if round % 7 == 0 {
                    // Exits holding all three: the exit drops the holds.
                    core.unregister_thread(t);
                    threads[(round % 2) as usize] = core.register_thread().unwrap();
                } else {
                    for l in (first..first + 3).rev() {
                        core.release(t, LockId(l));
                    }
                }
            }
            for _ in 0..if idle_run { 3 } else { 1 } {
                monitor.step(&core, &|_| {});
                let p = monitor.predictor.as_ref().unwrap();
                assert!(!p.live.has_pending_work(), "no enumeration left over");
                if !idle_run {
                    busy_dump = dump(&monitor);
                    assert!(p.committed.inputs <= p.live.clone_len());
                    if p.committed.inputs == 0 {
                        checkpoints += 1;
                    } else {
                        replayed += 1;
                    }
                }
                assert!(p.pending() <= 1, "round {round}: {:?}", p.fed);
                assert_eq!(dump(&monitor.respawn()), busy_dump, "round {round}");
            }
        }
        assert!(
            checkpoints >= 3 && replayed >= 3,
            "{checkpoints} {replayed}"
        );
    }

    /// A respawn replays every kind of entry the log holds, on top of a
    /// checkpoint: lane buffers moved into the log whole, sparse batches
    /// copied into its tail block, quiet-hold claims logged between them,
    /// and `Yield` / `Cancel` events, which feed the predictor nothing.
    /// After every pass the respawned predictor dumps as the live one did.
    #[test]
    fn a_respawn_replays_moved_copied_and_claimed_inputs() {
        let (core, mut monitor, frames, stacks) = wired();
        let (site, s) = site(&frames, &stacks);
        // Lanes drain in registration order: the dense one first, so the
        // sparse batches after it go into its buffer's room.
        let [dense, sparse, holder, waiter, cause, yielder] =
            [(); 6].map(|()| core.register_thread().unwrap());
        let held = [frames.intern("cause", "respawn.rs", 1)];
        let wanted = [frames.intern("yielder", "respawn.rs", 2)];
        let (hs, ws) = (stacks.intern(&held), stacks.intern(&wanted));
        monitor
            .history
            .add(CycleKind::Deadlock, vec![hs, ws], 1)
            .unwrap();
        let nests = |t, first: u64, n: u64| {
            for i in first..first + n {
                for l in i..i + 3 {
                    core.request(t, LockId(l), &site, s);
                    core.acquired(t, LockId(l), s);
                }
                for l in (i..i + 3).rev() {
                    core.release(t, LockId(l));
                }
            }
        };
        let (quiet, a, b) = (LockId(1000), LockId(1001), LockId(1002));
        let dump = |m: &Monitor| format!("{:?}", m.predictor.as_ref().unwrap().live);
        let (mut checkpoints, mut covered) = (0, 0);
        for round in 0..12_u64 {
            // 600 events, over half a block: the buffer moves whole.
            nests(dense, 100 + round % 7, 100);
            nests(sparse, 300 + round % 3, 2);
            if round % 2 == 0 {
                // A quiet hold with a waiter: the pass claims it.
                core.request(holder, quiet, &site, s);
                core.acquired(holder, quiet, s);
                core.request(waiter, quiet, &site, s);
                core.waiting(waiter, quiet, s);
            } else {
                core.release(holder, quiet);
                core.acquired(waiter, quiet, s);
                core.release(waiter, quiet);
            }
            // A yield on the signature, then its cancel.
            core.request(cause, a, &held, hs);
            core.acquired(cause, a, hs);
            let d = core.request(yielder, b, &wanted, ws);
            assert!(matches!(d, crate::Decision::Yield { .. }), "{d:?}");
            core.cancel(yielder, b);
            core.release(cause, a);

            monitor.step(&core, &|_| {});
            let busy_dump = dump(&monitor);
            let p = monitor.predictor.as_ref().unwrap();
            if p.committed.inputs == 0 {
                checkpoints += 1;
            }
            let events: Vec<&Event> = p.blocks.iter().flatten().collect();
            let moved = p.blocks.iter().any(|b| b.len() >= 600);
            let copied = p
                .blocks
                .iter()
                .any(|b| b.iter().any(|e| e.thread() == sparse) && b[0].thread() == dense);
            let claimed = p.fed.iter().any(|&(at, input)| {
                matches!(input, Fed::Acquired(t, ..) if t == holder) && at > 0 && at < events.len()
            });
            let fed_nothing = events.iter().any(|e| matches!(e, Event::Yield { .. }))
                && events.iter().any(|e| matches!(e, Event::Cancel { .. }));
            if checkpoints > 0 && moved && copied && claimed && fed_nothing {
                covered += 1;
            }
            assert_eq!(dump(&monitor.respawn()), busy_dump, "round {round}");
        }
        assert!(checkpoints >= 1 && covered >= 3, "{checkpoints} {covered}");
    }

    /// The one call stack the quiet-hold tests lock with: it hits no
    /// bucket, the history being empty.
    fn site(
        frames: &FrameTable,
        stacks: &StackTable,
    ) -> ([dimmunix_signature::FrameId; 1], StackId) {
        let site = [frames.intern("f", "quiet.rs", 1)];
        let stack = stacks.intern(&site);
        (site, stack)
    }

    /// A quiet hold someone waits for is claimed, hold edge and all; once
    /// both pairs end, the RAG equals a replay of every event the pairs
    /// would have published had the hold never been quiet — no stale hold
    /// edge — and every counted outcome is retired.
    #[test]
    fn a_claimed_hold_once_released_leaves_the_replayed_rag() {
        let (core, mut monitor, frames, stacks) = wired();
        let (holder, waiter) = (
            core.register_thread().unwrap(),
            core.register_thread().unwrap(),
        );
        let l = LockId(1);
        let (site, s) = site(&frames, &stacks);
        core.request(holder, l, &site, s);
        core.acquired(holder, l, s);
        monitor.step(&core, &|_| {});
        assert_eq!(monitor.rag.holds_of(holder), 0, "no one waits: not drawn");

        core.request(waiter, l, &site, s);
        core.waiting(waiter, l, s);
        monitor.step(&core, &|_| {});
        let mut replay = Rag::new();
        replay.on_granted(holder, l, s);
        replay.on_go(waiter, l, s);
        replay.find_deadlock_cycles();
        assert!(monitor.rag == replay, "claimed: {:?}", monitor.rag);

        core.release(holder, l);
        core.acquired(waiter, l, s);
        core.release(waiter, l);
        monitor.step(&core, &|_| {});
        replay.on_release(holder, l);
        replay.on_acquired(waiter, l, s);
        replay.on_release(waiter, l);
        replay.find_deadlock_cycles();
        assert!(monitor.rag == replay, "released: {:?}", monitor.rag);
        assert!(monitor.rag.held_locks(holder).is_empty());

        let st = monitor.stats.snapshot();
        assert_eq!(st.quiet_pairs, 0, "the claimed pair is not quiet");
        assert_eq!(
            st.events_processed,
            st.requests + st.gos + st.acquisitions + st.releases,
            "{st:?}"
        );
    }

    /// A claim waits for everything the holder queued before its quiet
    /// hold: those events precede the hold edge in its thread's order.
    #[test]
    fn a_claim_waits_for_the_holders_queued_events() {
        let (core, mut monitor, frames, stacks) = wired();
        let t = core.register_thread().unwrap();
        let (a, b, c) = (LockId(1), LockId(2), LockId(3));
        let (site, s) = site(&frames, &stacks);
        // Nested, so published: four entries still queued.
        for l in [a, b] {
            core.request(t, l, &site, s);
            core.acquired(t, l, s);
        }
        core.release(t, b);
        core.release(t, a);
        core.request(t, c, &site, s);
        core.acquired(t, c, s);
        assert!(core.claim_quiet(&[c]).is_empty(), "queued events first");
        assert_eq!(monitor.drain_events(), 4);
        assert!(core.claim_quiet(&[a]).is_empty(), "a hold of another lock");
        assert_eq!(core.claim_quiet(&[c]), vec![(t, c, s)]);
        assert!(core.claim_quiet(&[c]).is_empty(), "claimed once");
        // The claimed hold's release is published.
        core.release(t, c);
        assert_eq!(monitor.drain_events(), 1);
    }

    /// The other order: a release that ends the hold before the monitor
    /// claims it leaves nothing to claim. The pair ends quiet, and no hold
    /// edge is ever drawn. (Claim, then release: the test above.)
    #[test]
    fn a_hold_released_before_its_claim_ends_quiet() {
        let (core, mut monitor, frames, stacks) = wired();
        let (holder, waiter) = (
            core.register_thread().unwrap(),
            core.register_thread().unwrap(),
        );
        let l = LockId(1);
        let (site, s) = site(&frames, &stacks);
        core.request(holder, l, &site, s);
        core.acquired(holder, l, s);
        core.request(waiter, l, &site, s);
        core.waiting(waiter, l, s);
        assert_eq!(monitor.drain_events(), 1, "the waiter's Go alone");

        core.release(holder, l);
        assert!(core.claim_quiet(&[l]).is_empty(), "released first");
        assert_eq!(monitor.stats.snapshot().quiet_pairs, 1);
        monitor.step(&core, &|_| {});
        assert!(monitor.rag.held_locks(holder).is_empty());
    }

    /// A request retried after a refused registration still clears the yield
    /// the monitor drew. The retry's first step withdraws the registration,
    /// but the `Yield` stays in force until a grant's event replaces it, so
    /// the grant may not become a quiet hold, even on a stack that by now
    /// hits no bucket — else the pair publishes nothing and the stale yield
    /// edges outlive it (and a false yield cycle could be archived).
    #[test]
    fn a_retried_request_publishes_the_grant_that_ends_a_drawn_yield() {
        let (core, mut monitor, frames, stacks) = wired();
        let (holder, yielder) = (
            core.register_thread().unwrap(),
            core.register_thread().unwrap(),
        );
        let (a, b) = (LockId(1), LockId(2));
        let held = [frames.intern("holder", "retry.rs", 1)];
        let wanted = [frames.intern("yielder", "retry.rs", 2)];
        let (hs, ws) = (stacks.intern(&held), stacks.intern(&wanted));
        let sig = monitor
            .history
            .add(CycleKind::Deadlock, vec![hs, ws], 1)
            .unwrap();
        core.request(holder, a, &held, hs);
        core.acquired(holder, a, hs);
        let d = core.request(yielder, b, &wanted, ws);
        assert!(matches!(d, crate::Decision::Yield { .. }), "{d:?}");
        monitor.step(&core, &|_| {});
        assert!(monitor.rag.is_yielding(yielder), "the Yield is drawn");

        assert!(monitor.history.remove(sig.id));
        core.request(yielder, b, &wanted, ws);
        core.acquired(yielder, b, ws);
        core.release(yielder, b);
        monitor.step(&core, &|_| {});
        assert!(!monitor.rag.is_yielding(yielder), "{:?}", monitor.rag);
    }

    /// A probe counts a yield cause's hold once. The yielder is registered
    /// first, so its lane — and the `Yield` that opens the probe — drains
    /// before the cause's `Granted`, which the probe then logs as an
    /// acquisition. The cause releases `a`, later nests `b` inside `outer`,
    /// and the yielder nests `a` inside `b`: no two threads ordered a pair
    /// both ways, so the probe is a false positive. A second copy of the
    /// cause's hold of `a` would outlive its release and read as `a → b`.
    #[test]
    fn a_probe_opened_before_its_causes_grant_counts_that_hold_once() {
        let (core, mut monitor, frames, stacks) = wired();
        let yielder = core.register_thread().unwrap();
        let cause = core.register_thread().unwrap();
        let (a, b, outer) = (LockId(1), LockId(2), LockId(3));
        let held = [frames.intern("cause", "probe.rs", 1)];
        let wanted = [frames.intern("yielder", "probe.rs", 2)];
        let (hs, ws) = (stacks.intern(&held), stacks.intern(&wanted));
        monitor
            .history
            .add(CycleKind::Deadlock, vec![hs, ws], 1)
            .unwrap();
        let (site, s) = site(&frames, &stacks);
        let nest = |t, pairs: [(LockId, &[_], StackId); 2]| {
            for (l, frames, stack) in pairs {
                core.request(t, l, frames, stack);
                core.acquired(t, l, stack);
            }
        };
        // Nested, so the hold of `a` is published.
        nest(cause, [(outer, &site, s), (a, &held, hs)]);
        let d = core.request(yielder, b, &wanted, ws);
        assert!(matches!(d, crate::Decision::Yield { .. }), "{d:?}");
        monitor.step(&core, &|_| {});
        assert_eq!(monitor.probes.len(), 1);
        assert_eq!(monitor.rag.held_locks(cause), [outer, a]);

        assert_eq!(core.release(cause, a), [yielder]);
        core.release(cause, outer);
        nest(cause, [(outer, &site, s), (b, &site, s)]);
        core.release(cause, b);
        core.release(cause, outer);
        monitor.step(&core, &|_| {});

        nest(yielder, [(b, &wanted, ws), (a, &site, s)]);
        core.release(yielder, a);
        core.release(yielder, b);
        monitor.step(&core, &|_| {});
        let st = monitor.stats.snapshot();
        assert!(monitor.probes.is_empty());
        assert_eq!((st.false_positives, st.true_positives), (1, 0));
    }

    /// Lock aging counts what the predictor is fed: a lock used only in
    /// quiet pairs after its last published hold retires on the same pass
    /// as one left untouched.
    #[test]
    fn a_lock_used_only_in_quiet_pairs_retires_like_an_untouched_one() {
        let aging = PredictionConfig {
            lock_retire_after: 2,
            ..PredictionConfig::default()
        };
        let mut worlds = [wired_with(aging.clone()), wired_with(aging)];
        let (a, b) = (LockId(1), LockId(2));
        let ts: Vec<ThreadId> = worlds
            .iter_mut()
            .map(|(core, monitor, frames, stacks)| {
                let t = core.register_thread().unwrap();
                let (site, s) = site(frames, stacks);
                for l in [a, b] {
                    core.request(t, l, &site, s);
                    core.acquired(t, l, s);
                }
                core.release(t, b);
                core.release(t, a);
                monitor.step(core, &|_| {});
                t
            })
            .collect();
        let predictor = |m: &Monitor| m.predictor.as_ref().unwrap().live.stats();
        for pass in 0..6 {
            let (core, monitor, frames, stacks) = &mut worlds[0];
            let (site, s) = site(frames, stacks);
            core.request(ts[0], a, &site, s);
            core.acquired(ts[0], a, s);
            core.release(ts[0], a);
            monitor.step(core, &|_| {});
            worlds[1].1.step(&worlds[1].0, &|_| {});
            let (used, untouched) = (predictor(&worlds[0].1), predictor(&worlds[1].1));
            assert_eq!(used, untouched, "pass {pass}");
        }
        let st = predictor(&worlds[0].1);
        assert_eq!((st.locks, st.edges_retired), (0, 1), "{st:?}");
        assert_eq!(worlds[0].1.stats.snapshot().quiet_pairs, 6);
    }
}
