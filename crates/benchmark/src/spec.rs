//! The benchmark's contract in one place: workload names with the reason
//! for each, and every metric's name, unit and direction. `BENCHMARK.json`
//! is generated from this (`dimmunix_benchmark spec`), and the smoke test
//! fails if the two drift apart.

use crate::json::escape;

/// Seconds one driver run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 10;

/// `(name, why)` of every workload, in run order.
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "raw_saturated",
        "1 worker, back-to-back RawLock pairs, empty history, its own monitor pass every 4096 pairs: 15 of 16 events spill to the overflow queue; fast path, lanes and monitor drain show here",
    ),
    (
        "raw_paced",
        "bursts of 200 pairs that fit the event lane, then a wait for the monitor thread's next tick, empty history: lanes never overflow, so pair latency is isolated from monitor throughput",
    ),
    (
        "raii_saturated",
        "raw_saturated through ImmunizedMutex under 10 live context frames: adds per-op context capture and stack interning, which every raw workload bypasses",
    ),
    (
        "raw_history1k",
        "raw_saturated with 1024 signatures loaded from a generated history file: index lookup and occupancy precheck on every op; setup carries history load and first index build",
    ),
    (
        "yield_handoff",
        "2 workers alternate over one real signature so every round is request, park, release-side wake drain, unpark, retry: the only workload on the yield branch, wake lists and parker",
    ),
    (
        "vaccinate_live",
        "raw_saturated from 64 signatures while a second thread appends 4 signatures every 50 ms: history writes beside reads, each batch a delta rebuild under live traffic",
    ),
    (
        "monitor_backlog",
        "no monitor thread, prediction on: 2 workers record nested acquisitions over 4096 ordered locks, then only step_monitor() is timed; monitor, RAG and predictor in batch, hooks off the clock",
    ),
];

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: `(name, unit, direction, regression bound)`.
pub type EndToEnd = (&'static str, &'static str, Better, f64);

/// The end-to-end metrics; every workload reports every one. An *op* is a
/// lock/unlock pair on the pair workloads, a hand-off round on
/// `yield_handoff`, and one applied event on `monitor_backlog`.
pub const END_TO_END: [EndToEnd; 4] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("ops_per_s", "1/s", Better::Higher, 0.20),
    ("op_ns_p50", "ns", Better::Lower, 0.20),
    ("footprint_bytes", "bytes", Better::Lower, 0.10),
];

use Better::{Higher, Lower};

/// The per-layer metrics `(name, unit, direction)`; the prefix before the
/// first `.` is the layer (a module of this repo, or `baseline`/`trace`).
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("baseline.timer_ns", "ns", Lower),
    ("baseline.plain_pair_ns", "ns", Lower),
    ("baseline.plain_pairs_per_s", "1/s", Higher),
    ("context.push_frame_ns", "ns", Lower),
    ("context.capture_ns", "ns", Lower),
    ("signature.intern_frame_ns", "ns", Lower),
    ("signature.intern_stack_ns", "ns", Lower),
    ("signature.history_open_ns", "ns", Lower),
    ("signature.history_save_ns", "ns", Lower),
    ("signature.history_add_batch_ns", "ns", Lower),
    ("signature.match_index_build_ns", "ns", Lower),
    ("signature.match_index_extended_ns", "ns", Lower),
    ("signature.match_miss_ns", "ns", Lower),
    ("signature.match_hit_ns", "ns", Lower),
    ("avoidance.request_ns", "ns", Lower),
    ("avoidance.acquired_ns", "ns", Lower),
    ("avoidance.release_ns", "ns", Lower),
    ("avoidance.request_hit_ns", "ns", Lower),
    ("avoidance.instr_only_pair_ns", "ns", Lower),
    ("avoidance.updates_only_pair_ns", "ns", Lower),
    ("avoidance.precheck_skip_share", "1/op", Higher),
    ("avoidance.cover_searches", "count", Lower),
    ("avoidance.cover_retries", "count", Lower),
    ("avoidance.cover_fallbacks", "count", Lower),
    ("avoidance.yields", "count", Lower),
    ("avoidance.yield_aborts", "count", Lower),
    ("avoidance.wake_drains", "count", Lower),
    ("avoidance.rebuilds_delta", "count", Higher),
    ("avoidance.rebuilds_full", "count", Lower),
    ("avoidance.rebuild_us_delta_max", "us", Lower),
    ("avoidance.rebuild_us_full_max", "us", Lower),
    ("lanes.push_ns", "ns", Lower),
    ("lanes.push_overflow_ns", "ns", Lower),
    ("lanes.drain_ns_per_event", "ns", Lower),
    ("lanes.overflow_share", "share", Lower),
    ("lanes.high_water", "count", Lower),
    ("lockfree.spsc_push_pop_ns", "ns", Lower),
    ("lockfree.mpsc_push_pop_ns", "ns", Lower),
    ("lockfree.epoch_load_ns", "ns", Lower),
    ("lockfree.occupancy_probe_ns", "ns", Lower),
    ("lockfree.bucket_write_ns", "ns", Lower),
    ("lockfree.bucket_read_ns", "ns", Lower),
    ("lockfree.wakelist_push_drain_ns", "ns", Lower),
    ("lockfree.wake_pool_hit_share", "share", Higher),
    ("raw.pair_ns", "ns", Lower),
    ("raw.skin_ns", "ns", Lower),
    ("raw.try_lock_pair_ns", "ns", Lower),
    ("sync.mutex_pair_ns", "ns", Lower),
    ("sync.mutex_skin_ns", "ns", Lower),
    ("sync.reentrant_pair_ns", "ns", Lower),
    ("sync.reentrant_nested_pair_ns", "ns", Lower),
    ("runtime.current_thread_ns", "ns", Lower),
    ("runtime.rss_peak_kb", "kB", Lower),
    ("monitor.step_ns_per_event", "ns", Lower),
    ("monitor.idle_step_ns", "ns", Lower),
    ("monitor.passes", "count", Lower),
    ("monitor.events_per_pass", "count", Higher),
    ("rag.replay_ns_per_event", "ns", Lower),
    ("rag.find_cycles_ns", "ns", Lower),
    ("predict.feed_ns_per_event", "ns", Lower),
    ("predict.pass_ns", "ns", Lower),
    ("predict.edges", "count", Lower),
    ("predict.scc_merges", "count", Lower),
    ("trace.op_ns", "ns", Lower),
    ("trace.untraced_op_ns", "ns", Lower),
    ("trace.untraced_op_ns_p99", "ns", Lower),
    ("trace.overhead_share", "share", Lower),
    ("trace.closure_share", "share", Higher),
    ("trace.current_thread_ns", "ns", Lower),
    ("trace.capture_ns", "ns", Lower),
    ("trace.intern_stack_ns", "ns", Lower),
    ("trace.request_ns", "ns", Lower),
    ("trace.mutex_lock_ns", "ns", Lower),
    ("trace.acquired_ns", "ns", Lower),
    ("trace.release_ns", "ns", Lower),
    ("trace.mutex_unlock_ns", "ns", Lower),
    ("trace.lock_call_ns", "ns", Lower),
    ("trace.unlock_call_ns", "ns", Lower),
    ("trace.step_monitor_ns", "ns", Lower),
    ("trace.spans", "count", Higher),
];

/// Unit of the named metric, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|&(n, u, _, _)| (n, u))
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"-p\", \"dimmunix_benchmark\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"crates/benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{}\"}}{comma}\n",
            escape(why)
        ));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \"bound\": {bound}}}{comma}\n",
            better.word()
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}{comma}\n",
            better.word()
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
