//! Request-path throughput: sharded engine vs. the pre-refactor
//! single-lock engine.
//!
//! Measures full `request → acquired → release` hook cycles per second at
//! 1/4/8 application threads, with an empty history and with 64 synthetic
//! signatures, for both engines:
//!
//! * **sharded** — the production [`dimmunix_core::AvoidanceCore`]: no
//!   global guard at all — no-candidate fast path, occupancy-precheck
//!   matching path over sharded suffix buckets, per-thread held-lock
//!   stacks, epoch-published match view, per-thread event lanes, monitor
//!   draining asynchronously;
//! * **reference** — the preserved pre-refactor
//!   [`dimmunix_core::ReferenceCore`]: one global tournament-lock critical
//!   section per hook, one shared MPSC event queue (drained by a stand-in
//!   monitor thread).
//!
//! Five workloads cover the matching path's contention spectrum:
//!
//! * **uniform** — each worker drives its own lock through its own random
//!   call path; signatures are random path pairs, so a fraction of workers
//!   hit member buckets (the paper's §7.2 setup);
//! * **same_sig** — every worker shares *one* call path that is a member of
//!   all 64 signatures: every request hits 64 candidates and all workers'
//!   entries land in one versioned bucket (single-bucket worst case);
//! * **disjoint_sig** — worker `w` hits exactly the one signature built
//!   over its own path: requests touch disjoint buckets and must not
//!   contend at all;
//! * **hot_cause** — worker 0 churns the anchor path of a real signature
//!   while every other worker's request covers against its entry: all
//!   yields share the one cause `(worker 0, its lock)`, so every yield
//!   registration and every release-side wakeup funnels through one
//!   lock-free `WakeList` (the old wake-shard-mutex convoy case);
//! * **vaccinate_live** — the uniform setup, plus a vaccinator thread that
//!   streams 48 extra signatures into the history mid-run in small
//!   pure-append batches: every batch is a generation bump the engines
//!   must absorb under live traffic. The sharded engine extends its view
//!   (shared buckets, only the new keys' buckets filled); the
//!   `--check-baseline` smoke fails if it fell back to fresh tables, and
//!   reports what share of its static-history throughput it kept.
//!
//! The comparison slightly *favors* the reference engine: the sharded side
//! runs the full monitor (RAG replay, cycle detection) against its event
//! stream, while the reference side's stand-in monitor merely discards
//! events. Single-thread results are therefore near parity; the win is the
//! removal of cross-thread serialization.
//!
//! Results are printed as a table and recorded in `BENCH_hot_path.json` at
//! the workspace root for trajectory tracking; recorded rows are the
//! **median of 3** runs per engine, which tames the ±50% run-to-run swing
//! of the reference engine's contention collapse. Pass `--quick` for a
//! shortened single-rep run (which leaves the committed baseline
//! untouched) and `--check-baseline` (the CI smoke setting) for the checks.
//!
//! **What `--check-baseline` fails on** is what does not depend on timing:
//! fault-injection hooks compiled into the measured build, the
//! proactive-prediction workload losing first-run immunity (see
//! `dimmunix_workloads::prediction`), and `vaccinate_live` never taking the
//! delta-rebuild path. **What it only reports** (`REGRESSED`, exit 0) is
//! every throughput comparison: each row's speedup against the committed
//! baseline (more than 30% lost), the one-thread empty-history row against
//! parity with the reference, and `vaccinate_live`'s share of the static
//! row. Those are ratios against `ReferenceCore`, whose throughput swings
//! ±40% run to run on a small host — the gate failed on parent and change
//! alike — so pair cost is judged by `crates/benchmark` instead.

use dimmunix_bench::microbench::{build_pool, MicroParams, PoolPath};
use dimmunix_bench::report::{banner, table};
use dimmunix_bench::siggen::{self, FramePath};
use dimmunix_core::{
    Config, CycleKind, Decision, Provenance, ReferenceCore, Runtime, StatsSnapshot,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Maximum regression of a row's speedup vs. the committed baseline before
/// `--check-baseline` reports it (30%).
const BASELINE_TOLERANCE: f64 = 0.70;

/// Committed speedups are compared after clamping to this value. Any
/// multi-thread row's ratio is dominated by run-to-run noise in the
/// *reference* engine's contention collapse (its 8-thread throughput
/// swings ±50%), so comparing an uncapped 10-20x baseline row would flag
/// healthy runs as regressions. The gate's job is "don't give back the
/// win": a row that can't reach 70% of the clamp has genuinely lost it,
/// and the 1x single-thread rows sit below the cap and are compared
/// as-is. Median-of-3 baseline recording let this tighten from the old 8x
/// acceptance floor to 10x.
const BASELINE_SPEEDUP_CAP: f64 = 10.0;

/// The ROADMAP target for the row with no cross-thread serialization to
/// remove: one thread, empty history, sharded at least as fast as the
/// reference. Reported with [`BASELINE_TOLERANCE`] like every other row.
const SOLO_SPEEDUP_TARGET: f64 = 1.0;

/// Reps per row when recording the baseline (median taken); `--quick` runs
/// a single rep.
const RECORD_REPS: usize = 3;

/// Signatures streamed into the history mid-run by the `vaccinate_live`
/// workload, in pure-append batches of [`LIVE_BATCH`] — each batch is one
/// generation bump, so a run absorbs `LIVE_SIGS / LIVE_BATCH` rebuilds
/// under live traffic. Pair paths are drawn from pool slots `160..256`
/// (never touched by workers or the uniform history synthesizer's hot
/// range), so vaccination grows the layout without changing which worker
/// requests are relevant.
const LIVE_SIGS: usize = 48;
const LIVE_BATCH: usize = 4;

/// Fraction of the static-history uniform throughput below which
/// `--check-baseline` reports the `vaccinate_live` row. The true
/// cost of absorbing the 12 mid-run generation bumps measures as ~0
/// within run-to-run noise (across full median-of-3 runs the ratio
/// swings 0.92–1.11 — vaccination sometimes *beats* the static row), so
/// the floor sits below the noise band: it exists to point at a real
/// regression — e.g. appends no longer extending the view,
/// which the `delta_rebuilds >= 1` gate flags deterministically (and
/// fails on) — not to re-measure the noise. Single-rep `--quick` smoke
/// runs are noisier still and report slightly looser.
const LIVE_PENALTY_FLOOR: f64 = 0.85;
const LIVE_PENALTY_FLOOR_QUICK: f64 = 0.80;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Uniform,
    SameSig,
    DisjointSig,
    HotCause,
    VaccinateLive,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Uniform => "uniform",
            Workload::SameSig => "same_sig",
            Workload::DisjointSig => "disjoint_sig",
            Workload::HotCause => "hot_cause",
            Workload::VaccinateLive => "vaccinate_live",
        }
    }
}

#[derive(Clone, Copy)]
struct Sample {
    workload: Workload,
    threads: usize,
    history: usize,
    sharded_ops_s: f64,
    reference_ops_s: f64,
    /// Sharded-engine stats from the median rep — rebuild-path counters
    /// are meaningful only for [`Workload::VaccinateLive`].
    stats: StatsSnapshot,
}

impl Sample {
    fn speedup(&self) -> f64 {
        self.sharded_ops_s / self.reference_ops_s
    }
}

fn bench_config() -> Config {
    Config {
        max_threads: 64,
        // Drain lanes aggressively so the bench measures the hook path, not
        // queue growth.
        monitor_period: Duration::from_millis(1),
        ..Config::default()
    }
}

/// The per-worker call paths and history for one workload.
fn workload_paths(workload: Workload, pool: &[PoolPath], threads: usize) -> Vec<FramePath> {
    match workload {
        // Worker w drives its own random path.
        Workload::Uniform | Workload::DisjointSig | Workload::VaccinateLive => {
            (0..threads).map(|w| pool[w].frames()).collect()
        }
        // Every worker shares path 0.
        Workload::SameSig => (0..threads).map(|_| pool[0].frames()).collect(),
        // Worker 0 churns the signature's anchor path; everyone else
        // requests through the partner path and yields on worker 0's
        // entry — one shared cause.
        Workload::HotCause => (0..threads)
            .map(|w| pool[if w == 0 { 0 } else { 1 }].frames())
            .collect(),
    }
}

/// Installs `history` signatures for `workload`, sharing the runtime's
/// interners so both engines see identical stack ids.
fn install_history(workload: Workload, rt: &Runtime, pool: &[PoolPath], history: usize) {
    if history == 0 {
        return;
    }
    match workload {
        // vaccinate_live starts from the identical static history and adds
        // its live signatures from a vaccinator thread mid-run.
        Workload::Uniform | Workload::VaccinateLive => {
            siggen::synthesize_history(rt, &siggen::pool_frames(pool), history, 2, 5, 4);
        }
        Workload::SameSig => {
            // Every signature pairs the shared worker path with a distinct
            // unused partner: all candidates hit, no cover ever completes.
            let anchor = rt.make_site(&pool[0].frames()).stack();
            for i in 0..history {
                let partner = rt.make_site(&pool[128 + i].frames()).stack();
                rt.history()
                    .add(CycleKind::Deadlock, vec![anchor, partner], 4);
            }
            rt.history().touch();
        }
        Workload::DisjointSig => {
            // Worker w's path appears in exactly one signature (with an
            // unused partner); the rest of the history is built over unused
            // paths so its size still matters to the index.
            for i in 0..history {
                let member = if i < 8 { &pool[i] } else { &pool[128 + i] };
                let a = rt.make_site(&member.frames()).stack();
                let b = rt.make_site(&pool[64 + i].frames()).stack();
                rt.history().add(CycleKind::Deadlock, vec![a, b], 4);
            }
            rt.history().touch();
        }
        Workload::HotCause => {
            // One *live* signature pairs worker 0's anchor path with the
            // partner path every other worker requests through — while
            // worker 0 holds its lock, every partner request covers it and
            // yields on the single cause (worker 0, lock 0). The rest of
            // the history is unused-path filler so index size matches the
            // other 64-signature rows.
            let anchor = rt.make_site(&pool[0].frames()).stack();
            let partner = rt.make_site(&pool[1].frames()).stack();
            rt.history()
                .add(CycleKind::Deadlock, vec![anchor, partner], 4);
            for i in 1..history {
                let a = rt.make_site(&pool[128 + i].frames()).stack();
                let b = rt.make_site(&pool[64 + i].frames()).stack();
                rt.history().add(CycleKind::Deadlock, vec![a, b], 4);
            }
            rt.history().touch();
        }
    }
}

/// One full hook cycle against either engine; yields are cancelled and the
/// op retried-as-counted so throughput stays comparable.
macro_rules! hook_cycle {
    ($request:expr, $cancel:expr, $acquired:expr, $release:expr) => {
        match $request {
            Decision::Go => {
                $acquired;
                std::hint::black_box($release);
            }
            Decision::Yield { .. } => {
                $cancel;
            }
        }
    };
}

/// The mid-run vaccination pair paths: pool slots `160..208` paired with
/// `208..256` — the top of the 256-path pool, outside every worker path.
fn live_pairs(pool: &[PoolPath]) -> Vec<(FramePath, FramePath)> {
    (0..LIVE_SIGS)
        .map(|i| (pool[160 + i].frames(), pool[208 + i].frames()))
        .collect()
}

/// Spawns the `vaccinate_live` vaccinator: streams [`LIVE_SIGS`] signatures
/// into `rt`'s history in pure-append batches of [`LIVE_BATCH`] while the
/// workers run. Both engines share the runtime's history, so the same
/// helper serves both runners; only the *absorption* differs (an extended
/// view vs. a single-lock rebuild).
fn spawn_vaccinator(rt: &Runtime, pool: &[PoolPath]) -> std::thread::JoinHandle<()> {
    let rt = rt.clone();
    let pairs = live_pairs(pool);
    std::thread::spawn(move || {
        for chunk in pairs.chunks(LIVE_BATCH) {
            std::thread::sleep(Duration::from_millis(2));
            let batch = chunk
                .iter()
                .map(|(a, b)| {
                    (
                        CycleKind::Deadlock,
                        vec![rt.make_site(a).stack(), rt.make_site(b).stack()],
                        4,
                        Provenance::Detected,
                    )
                })
                .collect();
            rt.history().add_batch_with_provenance(batch, |_| {});
        }
    })
}

fn run_sharded(
    workload: Workload,
    threads: usize,
    history: usize,
    ops: u64,
) -> (f64, StatsSnapshot) {
    let rt = Runtime::new(bench_config()).unwrap();
    let pool = build_pool(&MicroParams::default());
    install_history(workload, &rt, &pool, history);
    rt.spawn_monitor();
    let paths = workload_paths(workload, &pool, threads);
    let barrier = Arc::new(Barrier::new(threads + 1));
    let handles: Vec<_> = (0..threads)
        .map(|w| {
            let rt = rt.clone();
            let barrier = Arc::clone(&barrier);
            let frames = paths[w].clone();
            std::thread::spawn(move || {
                let t = rt.core().register_thread().expect("slot available");
                let l = rt.new_lock_id();
                let site = rt.make_site(&frames);
                barrier.wait();
                for _ in 0..ops {
                    hook_cycle!(
                        rt.core().request(t, l, site.frames(), site.stack()),
                        rt.core().cancel(t, l),
                        rt.core().acquired(t, l, site.stack()),
                        rt.core().release(t, l)
                    );
                }
                rt.core().unregister_thread(t);
            })
        })
        .collect();
    barrier.wait();
    let vaccinator = (workload == Workload::VaccinateLive).then(|| spawn_vaccinator(&rt, &pool));
    let t0 = Instant::now();
    for h in handles {
        h.join().expect("bench worker panicked");
    }
    let elapsed = t0.elapsed();
    if let Some(v) = vaccinator {
        v.join().expect("vaccinator panicked");
    }
    let stats = rt.stats();
    rt.shutdown();
    ((threads as u64 * ops) as f64 / elapsed.as_secs_f64(), stats)
}

fn run_reference(workload: Workload, threads: usize, history: usize, ops: u64) -> f64 {
    // An idle runtime supplies the interners and history; the engine under
    // test is the pre-refactor core.
    let rt = Runtime::new(bench_config()).unwrap();
    let pool = build_pool(&MicroParams::default());
    install_history(workload, &rt, &pool, history);
    let core = Arc::new(ReferenceCore::new(
        bench_config(),
        Arc::clone(rt.history()),
        Arc::clone(rt.stack_table()),
    ));
    // Stand-in monitor: keep the shared event queue drained.
    let stop = Arc::new(AtomicBool::new(false));
    let drainer = {
        let core = Arc::clone(&core);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                core.drain_events(1 << 16);
                std::thread::sleep(Duration::from_millis(1));
            }
            core.drain_events(usize::MAX);
        })
    };
    let paths = workload_paths(workload, &pool, threads);
    let barrier = Arc::new(Barrier::new(threads + 1));
    let handles: Vec<_> = (0..threads)
        .map(|w| {
            let rt = rt.clone();
            let core = Arc::clone(&core);
            let barrier = Arc::clone(&barrier);
            let frames = paths[w].clone();
            std::thread::spawn(move || {
                let t = core.register_thread().expect("slot available");
                let l = rt.new_lock_id();
                let site = rt.make_site(&frames);
                barrier.wait();
                for _ in 0..ops {
                    hook_cycle!(
                        core.request(t, l, site.frames(), site.stack()),
                        core.cancel(t, l),
                        core.acquired(t, l, site.stack()),
                        core.release(t, l)
                    );
                }
                core.unregister_thread(t);
            })
        })
        .collect();
    barrier.wait();
    let vaccinator = (workload == Workload::VaccinateLive).then(|| spawn_vaccinator(&rt, &pool));
    let t0 = Instant::now();
    for h in handles {
        h.join().expect("bench worker panicked");
    }
    let elapsed = t0.elapsed();
    if let Some(v) = vaccinator {
        v.join().expect("vaccinator panicked");
    }
    stop.store(true, Ordering::Relaxed);
    drainer.join().expect("drainer panicked");
    (threads as u64 * ops) as f64 / elapsed.as_secs_f64()
}

/// Extracts `"key": value` from one JSON row (numbers and strings only —
/// the baseline file is flat line-per-row JSON we wrote ourselves).
fn json_field<'a>(row: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = row.find(&pat)? + pat.len();
    let rest = &row[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Parses the committed baseline into `(workload, threads, history) →
/// speedup`. Rows predating the workload column count as "uniform".
fn parse_baseline(json: &str) -> Vec<((String, usize, usize), f64)> {
    json.lines()
        .filter(|line| line.contains("\"engine_pair\""))
        .filter_map(|line| {
            let workload = json_field(line, "workload")
                .unwrap_or("uniform")
                .to_string();
            let threads = json_field(line, "threads")?.parse().ok()?;
            let history = json_field(line, "history")?.parse().ok()?;
            let speedup = json_field(line, "speedup")?.parse().ok()?;
            Some(((workload, threads, history), speedup))
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick =
        args.iter().any(|a| a == "--quick") || std::env::var("DIMMUNIX_BENCH_QUICK").is_ok();
    let check_baseline = args.iter().any(|a| a == "--check-baseline");
    // The baseline gate is only meaningful against a production build: the
    // bench's dependency graph must not have unified the chaos suite's
    // `fault-inject` feature into the core. A workspace-root `cargo bench`
    // pulls the test-only chaos crate into the graph and compiles the hooks
    // in; the gated CI smoke must run via `-p dimmunix_bench` instead,
    // whose graph excludes it.
    if check_baseline {
        assert!(
            !dimmunix_core::fault_injection_compiled(),
            "--check-baseline measured a build with fault-injection hooks compiled in; \
             run it as `cargo bench -p dimmunix_bench --bench hot_path`"
        );
    }
    // Developer knobs for low-noise iteration on one row (no baseline is
    // written when a filter is active): DIMMUNIX_BENCH_ONLY=same_sig,...
    // restricts the matrix; DIMMUNIX_BENCH_OPS overrides ops/thread.
    let only: Option<Vec<String>> = std::env::var("DIMMUNIX_BENCH_ONLY")
        .ok()
        .map(|v| v.split(',').map(|s| s.trim().to_string()).collect());
    let ops: u64 = std::env::var("DIMMUNIX_BENCH_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 20_000 } else { 200_000 });
    banner(&format!(
        "hot_path: request-path throughput, sharded vs pre-refactor engine \
         ({ops} ops/thread{})",
        if quick { ", --quick" } else { "" }
    ));

    let mut matrix: Vec<(Workload, usize, usize)> = Vec::new();
    for &history in &[0_usize, 64] {
        for &threads in &[1_usize, 4, 8] {
            matrix.push((Workload::Uniform, threads, history));
        }
    }
    // The signature-hit contention extremes — one shared bucket vs. fully
    // disjoint buckets — plus the shared-yield-cause wake storm, all at
    // the full thread count.
    matrix.push((Workload::SameSig, 8, 64));
    matrix.push((Workload::DisjointSig, 8, 64));
    matrix.push((Workload::HotCause, 8, 64));
    // Generation bumps under live traffic: the delta-rebuild row, compared
    // against uniform/8t/64sigs (identical except for the vaccinator).
    matrix.push((Workload::VaccinateLive, 8, 64));
    if let Some(only) = &only {
        matrix.retain(|&(w, _, _)| only.iter().any(|n| n == w.name()));
    }

    // Median-of-3 when recording (reference collapse throughput is noisy);
    // single rep for the CI smoke.
    let reps = if quick { 1 } else { RECORD_REPS };
    let median = |mut v: Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).expect("ops/s is finite"));
        v[v.len() / 2]
    };
    let mut samples = Vec::new();
    for &(workload, threads, history) in &matrix {
        // Keep the stats snapshot of the median rep so the recorded
        // rebuild gauges describe the same run as the recorded ops/s.
        let mut sharded: Vec<(f64, StatsSnapshot)> = (0..reps)
            .map(|_| run_sharded(workload, threads, history, ops))
            .collect();
        sharded.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("ops/s is finite"));
        let (sharded_ops_s, stats) = sharded[sharded.len() / 2];
        let reference: Vec<f64> = (0..reps)
            .map(|_| run_reference(workload, threads, history, ops))
            .collect();
        samples.push(Sample {
            workload,
            threads,
            history,
            sharded_ops_s,
            reference_ops_s: median(reference),
            stats,
        });
    }

    let rows: Vec<Vec<String>> = samples
        .iter()
        .map(|s| {
            vec![
                s.workload.name().to_string(),
                s.history.to_string(),
                s.threads.to_string(),
                format!("{:.0}", s.reference_ops_s),
                format!("{:.0}", s.sharded_ops_s),
                format!("{:.2}x", s.speedup()),
            ]
        })
        .collect();
    table(
        &[
            "Workload",
            "Signatures",
            "Threads",
            "Reference ops/s",
            "Sharded ops/s",
            "Speedup",
        ],
        &rows,
    );
    if let Some(headline) = samples
        .iter()
        .find(|s| s.workload == Workload::Uniform && s.threads == 8 && s.history == 64)
    {
        println!(
            "\nHeadline (8 threads, 64 signatures): {:.2}x \
             (acceptance floor: 8x)",
            headline.speedup()
        );
    }
    if let Some(live) = samples
        .iter()
        .find(|s| s.workload == Workload::VaccinateLive)
    {
        println!(
            "vaccinate_live rebuilds: {} delta (max {} µs) / {} full (max {} µs)",
            live.stats.rebuilds_delta,
            live.stats.rebuild_us_delta_max,
            live.stats.rebuilds_full,
            live.stats.rebuild_us_full_max,
        );
    }

    let json_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hot_path.json");

    if check_baseline {
        match std::fs::read_to_string(json_path) {
            Ok(json) => {
                let baseline = parse_baseline(&json);
                let mut regressed = false;
                for s in &samples {
                    let key = (s.workload.name().to_string(), s.threads, s.history);
                    let Some(&(_, base)) = baseline.iter().find(|(k, _)| *k == key) else {
                        println!(
                            "baseline: no row for {}/{}t/{}sigs (new row, skipped)",
                            key.0, s.threads, s.history
                        );
                        continue;
                    };
                    let clamped = base.min(BASELINE_SPEEDUP_CAP);
                    let ok = s.speedup() >= clamped * BASELINE_TOLERANCE;
                    println!(
                        "baseline: {}/{}t/{}sigs speedup {:.2}x vs committed {:.2}x \
                         (compared at {:.2}x) → {}",
                        key.0,
                        s.threads,
                        s.history,
                        s.speedup(),
                        base,
                        clamped,
                        if ok { "ok" } else { "REGRESSED" }
                    );
                    regressed |= !ok;
                }
                if regressed {
                    println!(
                        "\nat least one row lost more than {:.0}% of its committed \
                         speedup (reported, not gated: ratios against the reference \
                         engine are noise-limited)",
                        (1.0 - BASELINE_TOLERANCE) * 100.0
                    );
                }
            }
            Err(e) => println!("no baseline to check against ({e})"),
        }

        if let Some(solo) = samples
            .iter()
            .find(|s| s.workload == Workload::Uniform && s.threads == 1 && s.history == 0)
        {
            let ok = solo.speedup() >= SOLO_SPEEDUP_TARGET * BASELINE_TOLERANCE;
            println!(
                "solo: uniform/1t/0sigs speedup {:.2}x vs target {:.2}x → {}",
                solo.speedup(),
                SOLO_SPEEDUP_TARGET,
                if ok { "ok" } else { "REGRESSED" }
            );
        }

        // Prediction smoke row: first-run immunity must keep working. The
        // workload deadlocks on a fresh empty-history runtime with
        // prediction off and must complete — with ≥ 1 predicted vaccine
        // archived and file-round-tripped — on the identical seed with
        // prediction on. (Hot-path cost of prediction is already covered
        // by the rows above: the predictor is monitor-side only.)
        match dimmunix_workloads::prediction::demonstrate(0..2048) {
            Some(d) => println!(
                "prediction: seed {} — baseline deadlocked, predicted run completed \
                 ({} vaccine(s), {} after file round trip) → ok",
                d.seed, d.predicted_signatures, d.saved_predicted
            ),
            None => {
                println!("\nFAIL: prediction lost first-run immunity (no demonstrating seed)");
                std::process::exit(1);
            }
        }

        // Live-vaccination smoke: the mid-run pure-append generation bumps
        // must ride the delta-rebuild path (at least one delta rebuild; a
        // full fallback for the *first* build is expected) — the check
        // this fails on. What the bumps cost the sharded engine, as a share
        // of its static-history throughput on the otherwise-identical
        // uniform row from the same run, is reported beside it.
        let live = samples
            .iter()
            .find(|s| s.workload == Workload::VaccinateLive && s.threads == 8);
        let static_row = samples
            .iter()
            .find(|s| s.workload == Workload::Uniform && s.threads == 8 && s.history == 64);
        if let (Some(live), Some(static_row)) = (live, static_row) {
            let ratio = live.sharded_ops_s / static_row.sharded_ops_s;
            let floor = if quick {
                LIVE_PENALTY_FLOOR_QUICK
            } else {
                LIVE_PENALTY_FLOOR
            };
            let delta_ok = live.stats.rebuilds_delta >= 1;
            let ok = ratio >= floor && delta_ok;
            println!(
                "vaccinate_live: {:.1}% of static-history throughput (floor {:.0}%), \
                 {} delta / {} full rebuilds → {}",
                ratio * 100.0,
                floor * 100.0,
                live.stats.rebuilds_delta,
                live.stats.rebuilds_full,
                if ok { "ok" } else { "REGRESSED" },
            );
            if !delta_ok {
                println!("\nFAIL: live vaccination never took the delta-rebuild path");
                std::process::exit(1);
            }
        }
    }

    if quick || only.is_some() {
        println!("\n--quick/filtered run: committed baseline left untouched");
        return;
    }

    // Record the baseline for trajectory tracking, every row with the core
    // count of the host it was measured on (the multi-thread ratios mean
    // little without it). The vaccinate_live row carries its rebuild-path
    // gauges so the trajectory also tracks how cheaply generation bumps are
    // absorbed.
    let host_cores = std::thread::available_parallelism().map_or(0, usize::from);
    let mut json = String::from("[\n");
    for (i, s) in samples.iter().enumerate() {
        let rebuilds = if s.workload == Workload::VaccinateLive {
            format!(
                ", \"delta_rebuilds\": {}, \"full_rebuilds\": {}, \
                 \"rebuild_us_delta_max\": {}, \"rebuild_us_full_max\": {}",
                s.stats.rebuilds_delta,
                s.stats.rebuilds_full,
                s.stats.rebuild_us_delta_max,
                s.stats.rebuild_us_full_max,
            )
        } else {
            String::new()
        };
        json.push_str(&format!(
            "  {{\"engine_pair\": \"sharded_vs_reference\", \"workload\": \"{}\", \
             \"threads\": {}, \"history\": {}, \"reference_ops_per_sec\": {:.0}, \
             \"sharded_ops_per_sec\": {:.0}, \"speedup\": {:.3}, \
             \"ops_per_thread\": {}, \"quick\": {}, \"host_cores\": {}{}}}{}\n",
            s.workload.name(),
            s.threads,
            s.history,
            s.reference_ops_s,
            s.sharded_ops_s,
            s.speedup(),
            ops,
            quick,
            host_cores,
            rebuilds,
            if i + 1 < samples.len() { "," } else { "" },
        ));
    }
    json.push_str("]\n");
    match std::fs::write(json_path, &json) {
        Ok(()) => println!("\nrecorded {json_path}"),
        Err(e) => println!("\ncould not record {json_path}: {e}"),
    }
}
