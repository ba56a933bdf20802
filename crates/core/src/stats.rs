//! Runtime counters.

use dimmunix_lockfree::CachePadded;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of hot-counter stripes (power of two). Threads bump the stripe
/// `slot % HOT_STRIPES`, so up to this many threads count concurrently
/// without sharing a cache line.
const HOT_STRIPES: usize = 16;

/// One stripe of the counters bumped on *every* lock operation. A stripe is
/// at most one cache line and is padded, so bumps from threads on different
/// stripes never invalidate each other's lines (false sharing) — the
/// single shared-counter-per-stat layout measurably throttled the request
/// path at 8+ threads.
#[derive(Default, Debug)]
pub struct HotStripe {
    /// `request` hook invocations.
    pub requests: AtomicU64,
    /// GO decisions returned.
    pub gos: AtomicU64,
    /// Locks actually acquired.
    pub acquisitions: AtomicU64,
    /// Locks released.
    pub releases: AtomicU64,
    /// Signature candidates dismissed by the guard-free occupancy precheck
    /// (a required member bucket was provably empty — nothing was read).
    pub precheck_skips: AtomicU64,
    /// Optimistic exact-cover searches actually performed.
    pub cover_searches: AtomicU64,
    /// Cover decisions retried because a member bucket's version moved
    /// between the optimistic read and the post-registration revalidation
    /// (the lock-free no-lost-wakeup protocol's churn path).
    pub cover_retries: AtomicU64,
    /// Release-side wake-list swap-and-drains performed (list non-empty).
    pub wake_drains: AtomicU64,
    /// Wake-list nodes retained (re-pushed) by a drain because they were
    /// live registrations for a different lock of the same cause thread.
    pub wake_retained: AtomicU64,
}

/// Monotonic counters exposed by a runtime; all relaxed atomics, cheap to
/// bump from the hot path.
///
/// The per-operation counters (`requests`, `gos`, `acquisitions`,
/// `releases`, plus the sharded-match-path `precheck_skips` /
/// `cover_searches`) are striped across [`HotStripe`]s indexed by thread
/// slot and summed on read. The remaining counters are rare (yields,
/// detections) or monitor-only and stay as single unpadded atomics.
#[derive(Debug)]
pub struct Stats {
    hot: Box<[CachePadded<HotStripe>]>,
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
    /// for a request, its GO and the acquisition. At quiescence (every
    /// hook returned, every event applied)
    ///
    /// ```text
    /// events_processed == requests + gos + yields + acquisitions + releases
    ///                     + cancel calls + thread exits
    /// ```
    ///
    /// holds exactly, whichever events carried the outcomes — so "has the
    /// monitor caught up with the hooks?" is a comparison of counters. How
    /// many lane entries that took is `events_last_drain` /
    /// `lane_high_water`, which count entries.
    pub events_processed: AtomicU64,
    /// Monitor wakeups.
    pub monitor_passes: AtomicU64,
    /// Match-state rebuilds (bucket table + index + view republish).
    pub rebuilds: AtomicU64,
    /// Monitor-lag gauge: lane entries drained by the most recent monitor
    /// pass.
    pub events_last_drain: AtomicU64,
    /// Monitor-lag gauge: peak lane depth — the deepest backlog, in
    /// entries, a monitor pass ever found waiting on one thread's event
    /// lane. Not bounded by the lane's block size.
    pub lane_high_water: AtomicU64,
    /// Monitor-lag gauge: cumulative blocks event lanes grew by — one each
    /// time a thread filled its lane's newest block before the monitor
    /// emptied it. 0 while the monitor keeps up.
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
    /// surviving buckets and occupancy fingerprints shared, only the new
    /// keys' buckets filled).
    pub rebuilds_delta: AtomicU64,
    /// Rebuilds that built a fresh table and filled all of it (structural
    /// history changes, first build, or layout growth past the inherited
    /// occupancy fingerprints).
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
    /// Cover decisions that exhausted the bounded optimistic-retry budget
    /// (`COVER_RETRY_LIMIT`, eight failed revalidations) and fell back to deciding under the
    /// member buckets' write claims (the effectively wait-free slow path).
    pub cover_fallbacks: AtomicU64,
    /// Yield registrations served from the thread's wake-node pool (no
    /// allocation).
    pub wake_pool_hits: AtomicU64,
    /// Yield registrations that Box-allocated because the pool was dry.
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
            hot: (0..HOT_STRIPES)
                .map(|_| CachePadded::new(HotStripe::default()))
                .collect(),
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
            rebuilds: AtomicU64::new(0),
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
            cover_fallbacks: AtomicU64::new(0),
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

    /// The hot-counter stripe for thread slot `slot`.
    #[inline]
    pub fn hot(&self, slot: usize) -> &HotStripe {
        &self.hot[slot & (HOT_STRIPES - 1)]
    }

    fn hot_sum(&self, field: impl Fn(&HotStripe) -> &AtomicU64) -> u64 {
        self.hot
            .iter()
            .map(|s| field(s).load(Ordering::Relaxed))
            .sum()
    }

    /// Total `request` hook invocations across all stripes.
    pub fn requests(&self) -> u64 {
        self.hot_sum(|s| &s.requests)
    }

    /// Total GO decisions across all stripes.
    pub fn gos(&self) -> u64 {
        self.hot_sum(|s| &s.gos)
    }

    /// Total lock acquisitions across all stripes.
    pub fn acquisitions(&self) -> u64 {
        self.hot_sum(|s| &s.acquisitions)
    }

    /// Total lock releases across all stripes.
    pub fn releases(&self) -> u64 {
        self.hot_sum(|s| &s.releases)
    }

    /// Total occupancy-precheck candidate dismissals across all stripes.
    pub fn precheck_skips(&self) -> u64 {
        self.hot_sum(|s| &s.precheck_skips)
    }

    /// Total optimistic cover searches across all stripes.
    pub fn cover_searches(&self) -> u64 {
        self.hot_sum(|s| &s.cover_searches)
    }

    /// Total churn-retried cover decisions across all stripes.
    pub fn cover_retries(&self) -> u64 {
        self.hot_sum(|s| &s.cover_retries)
    }

    /// Total wake-list drains across all stripes.
    pub fn wake_drains(&self) -> u64 {
        self.hot_sum(|s| &s.wake_drains)
    }

    /// Total wake-list nodes retained across all stripes.
    pub fn wake_retained(&self) -> u64 {
        self.hot_sum(|s| &s.wake_retained)
    }

    /// Convenience relaxed increment.
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
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
            wake_retained: self.wake_retained(),
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
            events_processed: Self::get(&self.events_processed),
            monitor_passes: Self::get(&self.monitor_passes),
            rebuilds: Self::get(&self.rebuilds),
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
            cover_fallbacks: Self::get(&self.cover_fallbacks),
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
    /// Signature candidates dismissed by the guard-free occupancy precheck.
    pub precheck_skips: u64,
    /// Optimistic exact-cover searches performed.
    pub cover_searches: u64,
    /// Cover decisions retried on version churn.
    pub cover_retries: u64,
    /// Wake-list swap-and-drains performed.
    pub wake_drains: u64,
    /// Wake-list nodes retained (re-pushed) by drains.
    pub wake_retained: u64,
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
    /// Counted hook outcomes retired by the monitor (see
    /// [`Stats::events_processed`] for the identity).
    pub events_processed: u64,
    /// Monitor wakeups.
    pub monitor_passes: u64,
    /// Match-state rebuilds.
    pub rebuilds: u64,
    /// Lane entries drained by the most recent monitor pass.
    pub events_last_drain: u64,
    /// Peak depth, in entries, of one thread's event lane.
    pub lane_high_water: u64,
    /// Cumulative blocks event lanes grew by.
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
    /// Cover decisions that fell back to the locked slow path.
    pub cover_fallbacks: u64,
    /// Yield registrations served from a wake-node pool.
    pub wake_pool_hits: u64,
    /// Yield registrations that Box-allocated (pool dry).
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
        Stats::bump(&s.hot(0).requests);
        Stats::bump(&s.hot(1).requests);
        Stats::bump(&s.yields);
        let snap = s.snapshot();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.yields, 1);
        assert_eq!(snap.gos, 0);
    }

    #[test]
    fn stripes_wrap_by_slot() {
        let s = Stats::new();
        // Slots 0 and HOT_STRIPES map to the same stripe; sums are exact
        // regardless.
        Stats::bump(&s.hot(0).gos);
        Stats::bump(&s.hot(HOT_STRIPES).gos);
        Stats::bump(&s.hot(3).gos);
        assert_eq!(s.gos(), 3);
        assert_eq!(s.hot(0).gos.load(Ordering::Relaxed), 2);
    }
}
