//! Runtime counters.

use crate::config::MAX_THREADS;
use dimmunix_lockfree::CachePadded;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Per-thread counter blocks are made this many at a time, as the engine
/// makes its thread records.
const HOT_BLOCK: usize = 64;

/// One thread's counters of the hook outcomes counted on *every* lock
/// operation. Each registered thread id has its own, in its own padded cell
/// (two 64-byte lines, the unit adjacent-line prefetch moves), so no two
/// threads ever write the same line.
///
/// **Single writer.** Only the thread that owns an id runs that id's hooks,
/// and an id changes hands only through the slot allocator, after the exit
/// sweep — the rule `ThreadSlot::grant` relies on too. So each counter has
/// one writer at a time, which counts with a load and a store
/// (`Stats::count`), no read-modify-write; readers load the counters
/// racily and sum them.
#[derive(Default, Debug)]
pub struct HotStripe {
    /// `request` hook invocations.
    pub requests: AtomicU64,
    /// GO decisions returned.
    pub gos: AtomicU64,
    /// Locks actually acquired.
    pub acquisitions: AtomicU64,
    /// Locks released, but for the releases that ended a quiet pair: those
    /// count in `quiet_pairs` alone ([`Stats::releases`] sums both).
    pub releases: AtomicU64,
    /// Signature candidates dismissed by the guard-free emptiness precheck
    /// (a required member bucket was provably empty — nothing was copied).
    pub precheck_skips: AtomicU64,
    /// Optimistic exact-cover searches actually performed.
    pub cover_searches: AtomicU64,
    /// Cover decisions retried because a yield registration was refused (a
    /// cause had popped the entry the cover named) or the history
    /// generation moved while it registered (the no-lost-wakeup protocol's
    /// retry path).
    pub cover_retries: AtomicU64,
    /// Entry pops (`release`, `cancel`) that found a waiter registered in
    /// the log.
    pub wake_drains: AtomicU64,
    /// Pairs that ended as a quiet hold no one waited for: the `release`
    /// retired their four counted outcomes (request, GO, acquisition,
    /// release) itself, and the monitor never heard of them. The one
    /// counter such a release writes.
    pub quiet_pairs: AtomicU64,
}

/// Monotonic counters exposed by a runtime; all relaxed atomics.
///
/// The per-operation counters (`requests`, `gos`, `acquisitions`,
/// `releases`, `quiet_pairs`, plus the match path's `precheck_skips`,
/// `cover_searches`, `cover_retries` and `wake_drains`) sit in one
/// [`HotStripe`] per thread id, written only by that id's thread
/// (`Stats::count`) and summed on read. The remaining counters are rare
/// (yields, detections) or monitor-only, may have several writers, and stay
/// single unpadded atomics bumped with a `fetch_add` (`Stats::bump`).
#[derive(Debug)]
pub struct Stats {
    /// The per-thread counters, [`HOT_BLOCK`] ids per block, each block
    /// made when the engine registers an id in it.
    hot: [OnceLock<Box<[CachePadded<HotStripe>; HOT_BLOCK]>>; MAX_THREADS / HOT_BLOCK],
    /// YIELD decisions returned (avoidances performed).
    pub yields: AtomicU64,
    /// Yields aborted by the max-yield-duration bound.
    pub yield_aborts: AtomicU64,
    /// Yields cancelled by the monitor to break starvation.
    pub yields_broken: AtomicU64,
    /// Deadlock cycles detected by the monitor.
    pub deadlocks_detected: AtomicU64,
    /// Yield cycles (induced starvation) detected by the monitor.
    pub starvations_detected: AtomicU64,
    /// New signatures added to the history.
    pub signatures_added: AtomicU64,
    /// Avoidances the retrospective analysis classified as false positives.
    pub false_positives: AtomicU64,
    /// Avoidances the retrospective analysis confirmed as true positives.
    pub true_positives: AtomicU64,
    /// Yields whose bindings did *not* match at the configured full depth
    /// (Figure 9's structural false positives).
    pub structural_false_positives: AtomicU64,
    /// Yields whose bindings matched at the configured full depth.
    pub structural_true_positives: AtomicU64,
    /// Threads that could not be registered (slot exhaustion) and ran
    /// unsupervised.
    pub unsupervised_threads: AtomicU64,
    /// RAII lock operations whose call stack was not in the calling
    /// thread's context tree and had to be interned by string
    /// ([`crate::context`]). The share served from the tree is
    /// `1 - capture_misses / requests` when every lock is an RAII one.
    pub capture_misses: AtomicU64,
    /// Counted hook outcomes the monitor has retired: each applied event
    /// adds [`crate::event::Event::outcomes`], not 1 — one `Granted` stands
    /// for a request, its GO and the acquisition — and each quiet hold it
    /// claimed adds the 3 of the `Granted` it stands in for. The pairs that
    /// never reached the monitor are [`HotStripe::quiet_pairs`];
    /// [`StatsSnapshot::events_processed`] adds 4 for each, and at
    /// quiescence (every hook returned, every event applied) with no quiet
    /// hold in force
    ///
    /// ```text
    /// snapshot.events_processed == requests + gos + yields + acquisitions
    ///                              + releases + cancel calls + thread exits
    /// ```
    ///
    /// holds exactly, whichever events carried the outcomes — so "has the
    /// monitor caught up with the hooks?" is a comparison of counters. A
    /// quiet hold still in force (unclaimed, not yet released) leaves its
    /// request, GO and acquisition — 3 — unretired until its release. How
    /// many lane entries that took is `events_last_drain` /
    /// `lane_high_water`, which count entries.
    pub events_processed: AtomicU64,
    /// Monitor wakeups.
    pub monitor_passes: AtomicU64,
    /// Monitor-lag gauge: lane entries drained by the most recent monitor
    /// pass.
    pub events_last_drain: AtomicU64,
    /// Monitor-lag gauge: peak lane depth — the deepest backlog, in
    /// entries, a monitor pass ever found waiting on one thread's event
    /// lane. Not bounded by [`crate::lanes::BLOCK_CAPACITY`].
    pub lane_high_water: AtomicU64,
    /// Monitor-lag gauge: cumulative pushes that grew an event lane past a
    /// full block of [`crate::lanes::BLOCK_CAPACITY`] events — one per block
    /// a thread got ahead of the monitor. 0 while the monitor keeps up.
    pub lane_overflows: AtomicU64,
    /// Occupancy-skew gauge: the highest live-entry count observed in any
    /// single `Allowed` bucket (updated by monitor passes; a hot bucket
    /// here means one signature member's suffix concentrates the load).
    pub hot_bucket_peak: AtomicU64,
    /// Feasible deadlock cycles reported by the lock-order-graph
    /// predictor (monitor-side; see `Config::prediction`).
    pub cycles_predicted: AtomicU64,
    /// Predicted cycles actually synthesized into the history as
    /// `predicted`-provenance signatures (deduplicated, budget-capped).
    pub predicted_signatures: AtomicU64,
    /// Lock-order cycles the predictor refuted because a shared gate
    /// (guard) lock provably serializes them — the suppressed would-be
    /// false vaccines.
    pub prediction_guard_suppressed: AtomicU64,
    /// Gauge: live edge instances in the predictor's lock-order graph.
    pub prediction_edges: AtomicU64,
    /// Gauge: cycle enumerations the predictor parked at a pass-budget
    /// boundary and resumed on the next pass. Unlike the pre-condensation
    /// predictor this never *abandons* an edge — the gauge measures
    /// latency (prediction arriving a pass late), not lost soundness.
    pub prediction_deferred: AtomicU64,
    /// Gauge: strongly-connected-component merges performed by the
    /// predictor's incremental condensation (each merge is a candidate
    /// deadlock neighborhood that triggered cycle enumeration).
    pub scc_merges: AtomicU64,
    /// Gauge: largest strongly connected component the predictor's
    /// condensation has ever held — the upper bound on any single
    /// enumeration's search space.
    pub scc_component_peak: AtomicU64,
    /// Gauge: lock-order-graph edges retired by lock aging (both
    /// endpoints release-quiescent past `lock_retire_after` passes).
    pub prediction_edges_retired: AtomicU64,
    /// Rebuilds that extended the previous view (pure signature appends:
    /// surviving buckets shared, only the new keys' buckets filled). With
    /// `rebuilds_full`, every match-state rebuild there was.
    pub rebuilds_delta: AtomicU64,
    /// Rebuilds that built a fresh table and filled all of it (the first
    /// build, structural history changes).
    pub rebuilds_full: AtomicU64,
    /// Worst observed delta-rebuild latency, microseconds.
    pub rebuild_us_delta_max: AtomicU64,
    /// Worst observed full-rebuild latency, microseconds.
    pub rebuild_us_full_max: AtomicU64,
    /// Delta-rebuild latency histogram; bin upper bounds are
    /// [`REBUILD_US_BINS`] (microseconds, last bin unbounded).
    pub rebuild_us_delta_hist: [AtomicU64; REBUILD_BINS],
    /// Full-rebuild latency histogram; bins as in `rebuild_us_delta_hist`.
    pub rebuild_us_full_hist: [AtomicU64; REBUILD_BINS],
    /// Yield registrations that found room in the cause's waiter list (no
    /// allocation).
    pub wake_pool_hits: AtomicU64,
    /// Yield registrations that grew the cause's waiter list.
    pub wake_pool_misses: AtomicU64,
    /// Registered threads whose state was reclaimed by the unwind path — a
    /// `Registration` dropped while its thread was panicking (owner-table
    /// entries swept, yield state cleared, yielders woken, `ThreadExit`
    /// emitted).
    pub panic_cleanups: AtomicU64,
    /// Yielders woken because their cause thread exited or panicked while
    /// they were parked on it (the exit-path wake sweep, not a release).
    pub orphan_wakes: AtomicU64,
    /// Monitor passes that panicked and were restarted by the supervisor
    /// with tracker state rebuilt from the last good RAG snapshot.
    pub monitor_restarts: AtomicU64,
    /// Gauge (0/1): the runtime is in degraded pass-through mode — the
    /// monitor exceeded its restart budget, so detection/calibration/
    /// prediction are off and yields use a bounded fallback wait.
    pub degraded_mode: AtomicU64,
    /// History files whose torn tail was salvaged at load time (valid
    /// prefix recovered into a `HistoryRecovery` report).
    pub history_salvaged: AtomicU64,
}

/// Number of bins in the rebuild-latency histograms.
pub const REBUILD_BINS: usize = 8;

/// Upper bounds (µs, inclusive) of the rebuild-latency histogram bins; the
/// last bin is unbounded.
pub const REBUILD_US_BINS: [u64; REBUILD_BINS] = [1, 4, 16, 64, 256, 1024, 4096, u64::MAX];

/// The histogram bin for a rebuild that took `us` microseconds.
pub fn rebuild_us_bin(us: u64) -> usize {
    REBUILD_US_BINS
        .iter()
        .position(|&hi| us <= hi)
        .unwrap_or(REBUILD_BINS - 1)
}

impl Default for Stats {
    fn default() -> Self {
        Self {
            hot: std::array::from_fn(|_| OnceLock::new()),
            yields: AtomicU64::new(0),
            yield_aborts: AtomicU64::new(0),
            yields_broken: AtomicU64::new(0),
            deadlocks_detected: AtomicU64::new(0),
            starvations_detected: AtomicU64::new(0),
            signatures_added: AtomicU64::new(0),
            false_positives: AtomicU64::new(0),
            true_positives: AtomicU64::new(0),
            structural_false_positives: AtomicU64::new(0),
            structural_true_positives: AtomicU64::new(0),
            unsupervised_threads: AtomicU64::new(0),
            capture_misses: AtomicU64::new(0),
            events_processed: AtomicU64::new(0),
            monitor_passes: AtomicU64::new(0),
            events_last_drain: AtomicU64::new(0),
            lane_high_water: AtomicU64::new(0),
            lane_overflows: AtomicU64::new(0),
            hot_bucket_peak: AtomicU64::new(0),
            cycles_predicted: AtomicU64::new(0),
            predicted_signatures: AtomicU64::new(0),
            prediction_guard_suppressed: AtomicU64::new(0),
            prediction_edges: AtomicU64::new(0),
            prediction_deferred: AtomicU64::new(0),
            scc_merges: AtomicU64::new(0),
            scc_component_peak: AtomicU64::new(0),
            prediction_edges_retired: AtomicU64::new(0),
            rebuilds_delta: AtomicU64::new(0),
            rebuilds_full: AtomicU64::new(0),
            rebuild_us_delta_max: AtomicU64::new(0),
            rebuild_us_full_max: AtomicU64::new(0),
            rebuild_us_delta_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            rebuild_us_full_hist: std::array::from_fn(|_| AtomicU64::new(0)),
            wake_pool_hits: AtomicU64::new(0),
            wake_pool_misses: AtomicU64::new(0),
            panic_cleanups: AtomicU64::new(0),
            orphan_wakes: AtomicU64::new(0),
            monitor_restarts: AtomicU64::new(0),
            degraded_mode: AtomicU64::new(0),
            history_salvaged: AtomicU64::new(0),
        }
    }
}

impl Stats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counters of thread id `slot`, which only that thread may count
    /// in ([`HotStripe`]). Their block is made on first use, which the
    /// engine's `register_thread` is, so no hook allocates.
    #[inline]
    pub(crate) fn hot(&self, slot: usize) -> &HotStripe {
        let block = self.hot[slot / HOT_BLOCK].get_or_init(|| {
            // On the heap, not through 8 KB of the caller's stack.
            let made: Box<[CachePadded<HotStripe>]> = (0..HOT_BLOCK)
                .map(|_| CachePadded::new(HotStripe::default()))
                .collect();
            made.try_into().unwrap_or_else(|_| unreachable!())
        });
        &block[slot % HOT_BLOCK]
    }

    /// Sums `field` over every thread's counters made so far.
    fn hot_sum(&self, field: impl Fn(&HotStripe) -> &AtomicU64) -> u64 {
        let blocks = self.hot.iter().filter_map(OnceLock::get);
        blocks
            .flat_map(|block| block.iter())
            .map(|s| field(s).load(Ordering::Relaxed))
            .sum()
    }

    /// Total `request` hook invocations across all threads.
    pub fn requests(&self) -> u64 {
        self.hot_sum(|s| &s.requests)
    }

    /// Total GO decisions across all threads.
    pub fn gos(&self) -> u64 {
        self.hot_sum(|s| &s.gos)
    }

    /// Total lock acquisitions across all threads.
    pub fn acquisitions(&self) -> u64 {
        self.hot_sum(|s| &s.acquisitions)
    }

    /// Total lock releases across all threads, quiet pairs' included.
    pub fn releases(&self) -> u64 {
        self.hot_sum(|s| &s.releases) + self.quiet_pairs()
    }

    /// Total emptiness-precheck candidate dismissals across all threads.
    pub fn precheck_skips(&self) -> u64 {
        self.hot_sum(|s| &s.precheck_skips)
    }

    /// Total optimistic cover searches across all threads.
    pub fn cover_searches(&self) -> u64 {
        self.hot_sum(|s| &s.cover_searches)
    }

    /// Total churn-retried cover decisions across all threads.
    pub fn cover_retries(&self) -> u64 {
        self.hot_sum(|s| &s.cover_retries)
    }

    /// Total entry pops that found a waiter, across all threads.
    pub fn wake_drains(&self) -> u64 {
        self.hot_sum(|s| &s.wake_drains)
    }

    /// Total quiet pairs across all threads.
    pub fn quiet_pairs(&self) -> u64 {
        self.hot_sum(|s| &s.quiet_pairs)
    }

    /// Convenience relaxed increment, for a counter with several writers.
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to a counter of the calling thread's own [`HotStripe`]: a
    /// load and a store, since no other thread writes it.
    #[inline]
    pub(crate) fn count(counter: &AtomicU64, n: u64) {
        counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }

    /// Records one rebuild latency into the delta or full histogram + max
    /// gauge.
    pub(crate) fn record_rebuild_us(&self, delta: bool, us: u64) {
        let (hist, max) = if delta {
            (&self.rebuild_us_delta_hist, &self.rebuild_us_delta_max)
        } else {
            (&self.rebuild_us_full_hist, &self.rebuild_us_full_max)
        };
        hist[rebuild_us_bin(us)].fetch_add(1, Ordering::Relaxed);
        max.fetch_max(us, Ordering::Relaxed);
    }

    /// Convenience relaxed read.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// A plain-data snapshot of every counter.
    pub fn snapshot(&self) -> StatsSnapshot {
        let quiet_pairs = self.quiet_pairs();
        StatsSnapshot {
            requests: self.requests(),
            gos: self.gos(),
            yields: Self::get(&self.yields),
            acquisitions: self.acquisitions(),
            releases: self.releases(),
            precheck_skips: self.precheck_skips(),
            cover_searches: self.cover_searches(),
            cover_retries: self.cover_retries(),
            wake_drains: self.wake_drains(),
            quiet_pairs,
            yield_aborts: Self::get(&self.yield_aborts),
            yields_broken: Self::get(&self.yields_broken),
            deadlocks_detected: Self::get(&self.deadlocks_detected),
            starvations_detected: Self::get(&self.starvations_detected),
            signatures_added: Self::get(&self.signatures_added),
            false_positives: Self::get(&self.false_positives),
            true_positives: Self::get(&self.true_positives),
            structural_false_positives: Self::get(&self.structural_false_positives),
            structural_true_positives: Self::get(&self.structural_true_positives),
            unsupervised_threads: Self::get(&self.unsupervised_threads),
            capture_misses: Self::get(&self.capture_misses),
            events_processed: Self::get(&self.events_processed) + 4 * quiet_pairs,
            monitor_passes: Self::get(&self.monitor_passes),
            events_last_drain: Self::get(&self.events_last_drain),
            lane_high_water: Self::get(&self.lane_high_water),
            lane_overflows: Self::get(&self.lane_overflows),
            hot_bucket_peak: Self::get(&self.hot_bucket_peak),
            cycles_predicted: Self::get(&self.cycles_predicted),
            predicted_signatures: Self::get(&self.predicted_signatures),
            prediction_guard_suppressed: Self::get(&self.prediction_guard_suppressed),
            prediction_edges: Self::get(&self.prediction_edges),
            prediction_deferred: Self::get(&self.prediction_deferred),
            scc_merges: Self::get(&self.scc_merges),
            scc_component_peak: Self::get(&self.scc_component_peak),
            prediction_edges_retired: Self::get(&self.prediction_edges_retired),
            rebuilds_delta: Self::get(&self.rebuilds_delta),
            rebuilds_full: Self::get(&self.rebuilds_full),
            rebuild_us_delta_max: Self::get(&self.rebuild_us_delta_max),
            rebuild_us_full_max: Self::get(&self.rebuild_us_full_max),
            rebuild_us_delta_hist: std::array::from_fn(|i| {
                Self::get(&self.rebuild_us_delta_hist[i])
            }),
            rebuild_us_full_hist: std::array::from_fn(|i| Self::get(&self.rebuild_us_full_hist[i])),
            cover_fallbacks: 0,
            wake_pool_hits: Self::get(&self.wake_pool_hits),
            wake_pool_misses: Self::get(&self.wake_pool_misses),
            panic_cleanups: Self::get(&self.panic_cleanups),
            orphan_wakes: Self::get(&self.orphan_wakes),
            monitor_restarts: Self::get(&self.monitor_restarts),
            degraded_mode: Self::get(&self.degraded_mode),
            history_salvaged: Self::get(&self.history_salvaged),
        }
    }
}

/// Plain-data copy of [`Stats`] at one instant.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// `request` hook invocations.
    pub requests: u64,
    /// GO decisions returned.
    pub gos: u64,
    /// YIELD decisions returned.
    pub yields: u64,
    /// Locks actually acquired.
    pub acquisitions: u64,
    /// Locks released.
    pub releases: u64,
    /// Signature candidates dismissed by the guard-free emptiness precheck.
    pub precheck_skips: u64,
    /// Optimistic exact-cover searches performed.
    pub cover_searches: u64,
    /// Cover decisions retried on a refused registration or a moved
    /// generation.
    pub cover_retries: u64,
    /// Entry pops that found a waiter.
    pub wake_drains: u64,
    /// Pairs retired at their `release` as quiet holds no one waited for.
    pub quiet_pairs: u64,
    /// Yields aborted by the max-yield bound.
    pub yield_aborts: u64,
    /// Yields broken by the monitor.
    pub yields_broken: u64,
    /// Deadlocks detected.
    pub deadlocks_detected: u64,
    /// Starvations detected.
    pub starvations_detected: u64,
    /// Signatures added.
    pub signatures_added: u64,
    /// False-positive avoidances.
    pub false_positives: u64,
    /// True-positive avoidances.
    pub true_positives: u64,
    /// Structural false positives (Figure 9 accounting).
    pub structural_false_positives: u64,
    /// Structural true positives (Figure 9 accounting).
    pub structural_true_positives: u64,
    /// Unsupervised threads.
    pub unsupervised_threads: u64,
    /// RAII lock operations that missed the thread's context tree.
    pub capture_misses: u64,
    /// Counted hook outcomes retired: by the monitor, plus 4 per quiet pair
    /// (see [`Stats::events_processed`] for the identity).
    pub events_processed: u64,
    /// Monitor wakeups.
    pub monitor_passes: u64,
    /// Lane entries drained by the most recent monitor pass.
    pub events_last_drain: u64,
    /// Peak depth, in entries, of one thread's event lane.
    pub lane_high_water: u64,
    /// Cumulative pushes that grew an event lane past a full block.
    pub lane_overflows: u64,
    /// Highest live-entry count observed in any single bucket.
    pub hot_bucket_peak: u64,
    /// Feasible cycles reported by the deadlock predictor.
    pub cycles_predicted: u64,
    /// Predicted signatures synthesized into the history.
    pub predicted_signatures: u64,
    /// Predictor cycles suppressed by gate-lock analysis.
    pub prediction_guard_suppressed: u64,
    /// Live predictor lock-order-graph edge instances.
    pub prediction_edges: u64,
    /// Predictor enumerations parked at a pass budget and resumed later.
    pub prediction_deferred: u64,
    /// Incremental-condensation SCC merges.
    pub scc_merges: u64,
    /// Largest SCC the predictor's condensation has ever held.
    pub scc_component_peak: u64,
    /// Lock-order edges retired by lock aging.
    pub prediction_edges_retired: u64,
    /// Rebuilds that extended the previous view.
    pub rebuilds_delta: u64,
    /// Rebuilds that built a fresh table.
    pub rebuilds_full: u64,
    /// Worst observed delta-rebuild latency, microseconds.
    pub rebuild_us_delta_max: u64,
    /// Worst observed full-rebuild latency, microseconds.
    pub rebuild_us_full_max: u64,
    /// Delta-rebuild latency histogram (bins: [`REBUILD_US_BINS`]).
    pub rebuild_us_delta_hist: [u64; REBUILD_BINS],
    /// Full-rebuild latency histogram (bins: [`REBUILD_US_BINS`]).
    pub rebuild_us_full_hist: [u64; REBUILD_BINS],
    /// Always 0: the cover decision has no fallback path any more.
    /// `crates/benchmark` still reads it.
    pub cover_fallbacks: u64,
    /// Yield registrations that found room in the cause's waiter list.
    pub wake_pool_hits: u64,
    /// Yield registrations that grew the cause's waiter list.
    pub wake_pool_misses: u64,
    /// Panicking-thread unwind cleanups performed.
    pub panic_cleanups: u64,
    /// Yielders woken by a cause thread's exit/panic sweep.
    pub orphan_wakes: u64,
    /// Monitor panics caught and restarted by the supervisor.
    pub monitor_restarts: u64,
    /// Gauge (0/1): runtime is in degraded pass-through mode.
    pub degraded_mode: u64,
    /// Torn history files salvaged at load time.
    pub history_salvaged: u64,
}

impl fmt::Debug for StatsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "requests={} gos={} yields={} acq={} rel={} aborts={} broken={} \
             deadlocks={} starvations={} sigs={} fp={} tp={} capture_misses={}",
            self.requests,
            self.gos,
            self.yields,
            self.acquisitions,
            self.releases,
            self.yield_aborts,
            self.yields_broken,
            self.deadlocks_detected,
            self.starvations_detected,
            self.signatures_added,
            self.false_positives,
            self.true_positives,
            self.capture_misses,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let s = Stats::new();
        Stats::count(&s.hot(0).requests, 1);
        Stats::count(&s.hot(1).requests, 1);
        Stats::bump(&s.yields);
        let snap = s.snapshot();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.yields, 1);
        assert_eq!(snap.gos, 0);
    }

    /// A quiet pair's release counts it once; the snapshot reads it as the
    /// release it was and the four outcomes it retired.
    #[test]
    fn a_quiet_pair_is_a_release_and_four_retired_outcomes() {
        let s = Stats::new();
        Stats::count(&s.hot(0).releases, 1);
        Stats::bump(&s.events_processed);
        Stats::count(&s.hot(5).quiet_pairs, 1);
        let snap = s.snapshot();
        assert_eq!(snap.quiet_pairs, 1);
        assert_eq!(snap.releases, 2);
        assert_eq!(snap.events_processed, 5);
    }

    /// Every thread id counts in its own cell — 0 and 16 no longer share
    /// one, and 64 is in a second block — and the sums cover every block
    /// made.
    #[test]
    fn per_thread_counters_are_kept_apart_and_summed() {
        let s = Stats::new();
        for (slot, n) in [(0, 1), (16, 2), (64, 4)] {
            Stats::count(&s.hot(slot).gos, n);
        }
        Stats::count(&s.hot(64).precheck_skips, 7);
        let own = |slot: usize| s.hot(slot).gos.load(Ordering::Relaxed);
        assert_eq!((own(0), own(16), own(64), own(1)), (1, 2, 4, 0));
        assert_eq!((s.gos(), s.precheck_skips()), (7, 7));
        assert!(!std::ptr::eq(s.hot(0), s.hot(16)));
        assert_eq!(s.hot.iter().filter(|b| b.get().is_some()).count(), 2);
    }
}
