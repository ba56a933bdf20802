//! `predict_bench` — the predictor's scaling benchmark: synthetic
//! lock-order workloads at 1k/4k/16k locks, recorded in
//! `BENCH_predict.json`.
//!
//! The claim under test is the incremental SCC condensation's: prediction
//! cost scales with *events and new edges*, never with graph size. Every
//! scale feeds the **same number of events**, twice: an untimed *warmup*
//! round that constructs the graph and condensation (one-time work,
//! inherently linear in the lock count — recorded as `warmup_us` for
//! transparency), then an identical *timed* round measuring the
//! steady-state cost of living with that graph. A near-linear predictor
//! shows near-flat steady-state latency as the lock population grows 16×
//! — the pre-condensation per-dirty-edge DFS (quadratic-ish in graph
//! size) cannot.
//!
//! Four acyclic shapes stress different condensation paths:
//!
//! * `chain` — locks acquired in one global order; every new edge lands in
//!   topological order (the `ensure_below` fast path).
//! * `star` — one hub held while every spoke is acquired; maximal fan-out
//!   from a single component.
//! * `random` — Erdős–Rényi edges oriented low→high (a random DAG);
//!   random insertion order exercises the Pearce–Kelly reorder windows.
//! * `layered` — 8 contention layers with random cross-layer edges, the
//!   lock-hierarchy shape of real servers.
//!
//! Each shape also runs a `+cycles` variant that plants 16 feasible
//! three-lock/three-thread cycles on dedicated locks, so cycle
//! enumeration and vaccine emission are measured (and gated) at every
//! scale. After the feed, passes keep running with no events until lock
//! aging retires the whole quiescent graph — the `retired` column.
//!
//! `--check-baseline` (the CI smoke) gates on this run's invariants —
//! they are machine-independent, unlike wall-clock times:
//!
//! * zero dropped observations and zero deferred enumerations anywhere
//!   (the condensation's defer-never-abandon contract, with a budget high
//!   enough that deferral itself would be a regression);
//! * every `+cycles` variant finds exactly its 16 planted cycles;
//! * aging drains the quiescent graph to zero locks at every scale;
//! * near-linear scaling: each acyclic shape's 16k-lock steady-state
//!   predictor time ≤ 8× its 1k-lock time (with a small absolute floor
//!   so microsecond-level 1k baselines don't amplify noise).
//!
//! `--quick` runs fewer events and leaves the committed baseline
//! untouched; a full run rewrites `BENCH_predict.json`. Every row records
//! the host's core count (`host_cores`) and the run's `scale` (`quick` or
//! `full`).

use dimmunix_predict::{PredictionConfig, Predictor};
use dimmunix_rag::{LockId, ThreadId};
use dimmunix_signature::StackId;
use std::time::{Duration, Instant};

/// Lock-count scales (the paper-scale claim: three orders of magnitude
/// past the evaluation workloads).
const SCALES: [usize; 3] = [1_000, 4_000, 16_000];
/// Events (hold-pair acquisitions) fed at every scale — fixed so latency
/// is comparable across scales.
const EVENTS: usize = 120_000;
const EVENTS_QUICK: usize = 24_000;
/// Events between monitor-style prediction passes.
const PASS_EVERY: usize = 2_000;
/// Simulated application threads for the acyclic stream.
const THREADS: u64 = 64;
/// Feasible three-lock cycles planted by the `+cycles` variants.
const PLANTED_CYCLES: usize = 16;
/// Passes a quiescent lock survives before aging retires it.
const RETIRE_AFTER: u64 = 64;
/// Acyclic scaling gate: 16k-lock total time must stay within this factor
/// of the 1k-lock total.
const SCALE_FACTOR_CAP: f64 = 8.0;
/// Absolute floor (µs) for the 1k baseline in the scaling gate.
const SCALE_FLOOR_US: u64 = 2_000;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    Chain,
    Star,
    Random,
    Layered,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Chain => "chain",
            Shape::Star => "star",
            Shape::Random => "random",
            Shape::Layered => "layered",
        }
    }

    /// The `k`-th ordering observation: acquire `dst` while holding `src`.
    fn edge(self, k: usize, locks: usize, rng: &mut u64) -> (usize, usize) {
        match self {
            Shape::Chain => {
                let u = k % (locks - 1);
                (u, u + 1)
            }
            Shape::Star => (0, 1 + k % (locks - 1)),
            Shape::Random => {
                // Random pair oriented low→high: a random DAG, so the
                // stream stays acyclic regardless of insertion order.
                let a = (xorshift(rng) as usize) % locks;
                let b = (xorshift(rng) as usize) % locks;
                if a == b {
                    (a, (a + 1) % locks)
                } else {
                    (a.min(b), a.max(b))
                }
            }
            Shape::Layered => {
                let layers = 8;
                let width = locks / layers;
                let layer = (xorshift(rng) as usize) % (layers - 1);
                let u = layer * width + (xorshift(rng) as usize) % width;
                let v = (layer + 1) * width + (xorshift(rng) as usize) % width;
                (u, v)
            }
        }
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

struct Row {
    shape: Shape,
    cycles_variant: bool,
    locks: usize,
    events: usize,
    passes: usize,
    /// The untimed construction round's wall time (graph + condensation
    /// build; one-time, linear in the lock count by nature).
    warmup_us: u64,
    /// Steady-state event-feed time (the `on_acquired`/`on_release` hooks
    /// — where the condensation's incremental work happens).
    feed_us: u64,
    /// Steady-state cumulative `pass()` time.
    pass_us: u64,
    /// Worst single steady-state pass.
    pass_us_max: u64,
    /// Quiescent-drain time (the aging passes after the feed).
    drain_us: u64,
    cycles_found: usize,
    deferred: u64,
    dropped: u64,
    retired: u64,
    merges: u64,
    component_peak: u64,
    drained_clean: bool,
}

impl Row {
    fn total_us(&self) -> u64 {
        self.feed_us + self.pass_us
    }

    fn name(&self) -> String {
        if self.cycles_variant {
            format!("{}+cycles", self.shape.name())
        } else {
            self.shape.name().to_string()
        }
    }
}

fn bench_config() -> PredictionConfig {
    PredictionConfig {
        // One instance slot per simulated thread: the streams rotate all
        // THREADS threads over every edge, and a per-edge cap below that
        // would count legitimate capping as a soundness-gate failure.
        max_instances_per_edge: THREADS as usize,
        // Room for every distinct edge at 16k locks — an instance-cap
        // drop at scale would silently void the soundness gate.
        max_edge_instances: 1 << 20,
        // High enough that any deferral is a regression, not a tunable.
        pass_budget: 1 << 20,
        lock_retire_after: RETIRE_AFTER,
        ..PredictionConfig::default()
    }
}

/// Plants one feasible three-lock cycle on dedicated locks past the
/// workload's range: three threads, each holding one cycle lock while
/// acquiring the next, no other holds (so guard sets are empty and the
/// feasibility filter must pass it).
fn plant_cycle(p: &mut Predictor, idx: usize, base: usize) {
    let l = |j: usize| LockId((base + idx * 3 + j) as u64);
    let s = |j: usize| StackId((base + idx * 3 + j) as u32);
    for j in 0..3 {
        let t = ThreadId(100_000 + (idx * 3 + j) as u64);
        let (a, b) = (l(j), l((j + 1) % 3));
        p.on_acquired(t, a, s(j));
        p.on_acquired(t, b, s((j + 1) % 3));
        p.on_release(t, b);
        p.on_release(t, a);
    }
}

struct Phase {
    feed_us: u64,
    pass_us: u64,
    pass_us_max: u64,
    passes: usize,
    cycles: usize,
}

/// One full stream: the planted cycles (variant only), then `events`
/// hold-pair observations with a prediction pass every `PASS_EVERY`. The
/// rng is seeded per `(locks)` and restarted for every phase, so the
/// warmup and timed rounds of a run see byte-identical streams — the
/// second round measures steady state over the graph the first built.
fn feed_phase(
    p: &mut Predictor,
    shape: Shape,
    cycles_variant: bool,
    locks: usize,
    events: usize,
) -> Phase {
    let mut rng = 0x9E37_79B9_7F4A_7C15_u64 ^ (locks as u64);
    // Summed as `Duration`s and converted once: one event takes well under
    // a microsecond, so summing per-event whole microseconds reads ≈ 0.
    let (mut feed, mut pass, mut pass_max) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut passes, mut cycles) = (0, 0);
    if cycles_variant {
        let start = Instant::now();
        for idx in 0..PLANTED_CYCLES {
            plant_cycle(p, idx, locks);
        }
        feed += start.elapsed();
    }
    for k in 0..events {
        let (u, v) = shape.edge(k, locks, &mut rng);
        let t = ThreadId(k as u64 % THREADS);
        let (lu, lv) = (LockId(u as u64), LockId(v as u64));
        let start = Instant::now();
        p.on_acquired(t, lu, StackId(u as u32));
        p.on_acquired(t, lv, StackId(v as u32));
        p.on_release(t, lv);
        p.on_release(t, lu);
        feed += start.elapsed();
        if (k + 1) % PASS_EVERY == 0 {
            let start = Instant::now();
            cycles += p.pass().len();
            let took = start.elapsed();
            pass += took;
            pass_max = pass_max.max(took);
            passes += 1;
        }
    }
    let us = |d: Duration| d.as_micros() as u64;
    Phase {
        feed_us: us(feed),
        pass_us: us(pass),
        pass_us_max: us(pass_max),
        passes,
        cycles,
    }
}

fn run(shape: Shape, cycles_variant: bool, locks: usize, events: usize) -> Row {
    let mut p = Predictor::new(bench_config());
    // Warmup: build the graph and condensation (one-time, O(locks)).
    let warm = feed_phase(&mut p, shape, cycles_variant, locks, events);
    // Timed: the identical stream against the now-complete graph.
    let timed = feed_phase(&mut p, shape, cycles_variant, locks, events);
    let mut cycles_found = warm.cycles + timed.cycles;
    let Phase {
        feed_us,
        pass_us,
        pass_us_max,
        passes,
        ..
    } = timed;

    // Quiescent drain: no thread holds anything and no events arrive, so
    // aging must walk the whole graph out. Budget: every lock's probe is
    // due within RETIRE_AFTER passes of its last touch, plus slack for
    // re-armed probes.
    let start = Instant::now();
    let mut drained_clean = false;
    for _ in 0..(3 * RETIRE_AFTER + 8) {
        cycles_found += p.pass().len();
        if p.stats().locks == 0 {
            drained_clean = true;
            break;
        }
    }
    let drain_us = start.elapsed().as_micros() as u64;

    let stats = p.stats();
    Row {
        shape,
        cycles_variant,
        locks,
        events,
        passes,
        warmup_us: warm.feed_us + warm.pass_us,
        feed_us,
        pass_us,
        pass_us_max,
        drain_us,
        cycles_found,
        deferred: stats.deferred,
        dropped: stats.dropped,
        retired: stats.edges_retired,
        merges: stats.scc_merges,
        component_peak: stats.scc_component_peak,
        drained_clean,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick =
        args.iter().any(|a| a == "--quick") || std::env::var("DIMMUNIX_BENCH_QUICK").is_ok();
    let check_baseline = args.iter().any(|a| a == "--check-baseline");
    let events = if quick { EVENTS_QUICK } else { EVENTS };
    let scale = if quick { "quick" } else { "full" };
    let host_cores = std::thread::available_parallelism().map_or(0, usize::from);

    println!(
        "predict_bench: incremental-condensation scaling, {events} events per \
         scale ({scale} run, host_cores = {host_cores})"
    );

    let mut rows = Vec::new();
    for &shape in &[Shape::Chain, Shape::Star, Shape::Random, Shape::Layered] {
        for &cycles_variant in &[false, true] {
            for &locks in &SCALES {
                rows.push(run(shape, cycles_variant, locks, events));
            }
        }
    }

    println!(
        "\n{:<16} {:>6} {:>9} {:>9} {:>9} {:>9} {:>8} {:>7} {:>8} {:>7} {:>6}",
        "workload",
        "locks",
        "warm µs",
        "feed µs",
        "pass µs",
        "drain µs",
        "cycles",
        "defer",
        "retired",
        "merges",
        "peak"
    );
    for r in &rows {
        println!(
            "{:<16} {:>6} {:>9} {:>9} {:>9} {:>9} {:>8} {:>7} {:>8} {:>7} {:>6}",
            r.name(),
            r.locks,
            r.warmup_us,
            r.feed_us,
            r.pass_us,
            r.drain_us,
            r.cycles_found,
            r.deferred,
            r.retired,
            r.merges,
            r.component_peak,
        );
    }

    if check_baseline {
        let mut failed = false;
        for r in &rows {
            if r.dropped != 0 || r.deferred != 0 {
                println!(
                    "FAIL: {}/{} locks dropped {} observations, deferred {} \
                     enumerations (soundness gate: both must be 0)",
                    r.name(),
                    r.locks,
                    r.dropped,
                    r.deferred
                );
                failed = true;
            }
            if !r.drained_clean {
                println!(
                    "FAIL: {}/{} locks — aging did not drain the quiescent \
                     graph (locks left in the condensation)",
                    r.name(),
                    r.locks
                );
                failed = true;
            }
            if r.cycles_variant && r.cycles_found != PLANTED_CYCLES {
                println!(
                    "FAIL: {}/{} locks found {} cycles, planted {}",
                    r.name(),
                    r.locks,
                    r.cycles_found,
                    PLANTED_CYCLES
                );
                failed = true;
            }
            if !r.cycles_variant && r.cycles_found != 0 {
                println!(
                    "FAIL: {}/{} locks found {} cycles in an acyclic stream",
                    r.name(),
                    r.locks,
                    r.cycles_found
                );
                failed = true;
            }
        }
        for &shape in &[Shape::Chain, Shape::Star, Shape::Random, Shape::Layered] {
            let at = |locks: usize| {
                rows.iter()
                    .find(|r| r.shape == shape && !r.cycles_variant && r.locks == locks)
                    .expect("matrix covers every scale")
            };
            let small = at(SCALES[0]).total_us().max(SCALE_FLOOR_US);
            let big = at(SCALES[2]).total_us();
            let factor = big as f64 / small as f64;
            let ok = factor <= SCALE_FACTOR_CAP;
            println!(
                "scaling: {} {}→{} locks: {}µs → {}µs ({factor:.2}×, cap \
                 {SCALE_FACTOR_CAP:.0}×) → {}",
                shape.name(),
                SCALES[0],
                SCALES[2],
                at(SCALES[0]).total_us(),
                big,
                if ok { "ok" } else { "REGRESSED" }
            );
            failed |= !ok;
        }
        if failed {
            println!("\nFAIL: predict_bench baseline gate");
            std::process::exit(1);
        }
        println!("\npredict_bench baseline gate: ok");
    }

    if quick {
        println!("\n--quick run: committed baseline left untouched");
        return;
    }

    let json_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_predict.json");
    let mut json = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"workload\": \"{}\", \"locks\": {}, \"events\": {}, \
             \"host_cores\": {host_cores}, \"scale\": \"{scale}\", \
             \"passes\": {}, \"warmup_us\": {}, \"feed_us\": {}, \"pass_us\": {}, \
             \"pass_us_max\": {}, \"drain_us\": {}, \"total_us\": {}, \
             \"cycles_found\": {}, \"deferred\": {}, \"dropped\": {}, \
             \"edges_retired\": {}, \"scc_merges\": {}, \
             \"scc_component_peak\": {}}}{}\n",
            r.name(),
            r.locks,
            r.events,
            r.passes,
            r.warmup_us,
            r.feed_us,
            r.pass_us,
            r.pass_us_max,
            r.drain_us,
            r.total_us(),
            r.cycles_found,
            r.deferred,
            r.dropped,
            r.retired,
            r.merges,
            r.component_peak,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("]\n");
    match std::fs::write(json_path, &json) {
        Ok(()) => println!("\nrecorded {json_path}"),
        Err(e) => println!("\ncould not record {json_path}: {e}"),
    }
}
