//! Request-path throughput of the sharded engine across the matching
//! path's contention spectrum — a report, not a judge.
//!
//! Measures full `request → acquired → release` hook cycles per second of
//! the production [`dimmunix_core::AvoidanceCore`] (no global guard:
//! no-candidate fast path, emptiness-precheck matching path over sharded
//! suffix buckets, per-thread held-lock stacks, epoch-published match view,
//! per-thread event lanes, the full monitor draining asynchronously) at
//! 1/4/8 application threads, with an empty history and with 64 synthetic
//! signatures. Five workloads:
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
//!   pure-append batches: every batch is a generation bump the engine must
//!   absorb under live traffic by extending its view (shared buckets, only
//!   the new keys' buckets filled).
//!
//! Rows are absolute ops/s (median of 3 runs; `--quick` runs once) printed
//! with the host's core count, without which the multi-thread rows mean
//! little. Nothing is recorded and no row is compared with anything: what a
//! pair costs, and whether a change made it worse, is judged by
//! `crates/benchmark`.
//!
//! **`--check-baseline`** (the CI smoke setting) adds the three checks that
//! do not depend on timing, and exits non-zero on each: fault-injection
//! hooks compiled into the measured build, the proactive-prediction workload
//! losing first-run immunity (see `dimmunix_workloads::prediction`), and
//! `vaccinate_live` never extending the view (no delta rebuild).

use dimmunix_bench::microbench::{build_pool, MicroParams, PoolPath};
use dimmunix_bench::report::{banner, table};
use dimmunix_bench::siggen::{self, FramePath};
use dimmunix_core::{Config, CycleKind, Decision, Provenance, Runtime, StatsSnapshot};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Runs per row (median taken); `--quick` runs once.
const REPS: usize = 3;

/// Signatures streamed into the history mid-run by the `vaccinate_live`
/// workload, in pure-append batches of [`LIVE_BATCH`] — each batch is one
/// generation bump, so a run absorbs `LIVE_SIGS / LIVE_BATCH` rebuilds
/// under live traffic. Pair paths are drawn from pool slots `160..256`
/// (never touched by workers or the uniform history synthesizer's hot
/// range), so vaccination grows the layout without changing which worker
/// requests are relevant.
const LIVE_SIGS: usize = 48;
const LIVE_BATCH: usize = 4;

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
    ops_s: f64,
    /// Engine stats from the median rep — rebuild-path counters are
    /// meaningful only for [`Workload::VaccinateLive`].
    stats: StatsSnapshot,
}

fn bench_config() -> Config {
    Config {
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

/// Installs `history` signatures for `workload`.
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

/// One full hook cycle; yields are cancelled and the op counted, so
/// throughput stays comparable across rows.
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
/// workers run.
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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick =
        args.iter().any(|a| a == "--quick") || std::env::var("DIMMUNIX_BENCH_QUICK").is_ok();
    let check_baseline = args.iter().any(|a| a == "--check-baseline");
    // The smoke is only meaningful against a production build: the
    // bench's dependency graph must not have unified the chaos suite's
    // `fault-inject` feature into the core. A workspace-root `cargo bench`
    // pulls the test-only chaos crate into the graph and compiles the hooks
    // in; the CI smoke must run via `-p dimmunix_bench` instead, whose
    // graph excludes it.
    if check_baseline {
        assert!(
            !dimmunix_core::fault_injection_compiled(),
            "--check-baseline measured a build with fault-injection hooks compiled in; \
             run it as `cargo bench -p dimmunix_bench --bench hot_path`"
        );
    }
    // Developer knobs for low-noise iteration on one row:
    // DIMMUNIX_BENCH_ONLY=same_sig,... restricts the matrix;
    // DIMMUNIX_BENCH_OPS overrides ops/thread.
    let only: Option<Vec<String>> = std::env::var("DIMMUNIX_BENCH_ONLY")
        .ok()
        .map(|v| v.split(',').map(|s| s.trim().to_string()).collect());
    let ops: u64 = std::env::var("DIMMUNIX_BENCH_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if quick { 20_000 } else { 200_000 });
    let host_cores = std::thread::available_parallelism().map_or(0, usize::from);
    banner(&format!(
        "hot_path: request-path throughput of the sharded engine \
         ({ops} ops/thread, host_cores = {host_cores}{})",
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
    // Generation bumps under live traffic: uniform/8t/64sigs plus the
    // vaccinator.
    matrix.push((Workload::VaccinateLive, 8, 64));
    if let Some(only) = &only {
        matrix.retain(|&(w, _, _)| only.iter().any(|n| n == w.name()));
    }

    let reps = if quick { 1 } else { REPS };
    let mut samples = Vec::new();
    for &(workload, threads, history) in &matrix {
        // Keep the stats snapshot of the median rep so the reported rebuild
        // gauges describe the same run as the reported ops/s.
        let mut runs: Vec<(f64, StatsSnapshot)> = (0..reps)
            .map(|_| run_sharded(workload, threads, history, ops))
            .collect();
        runs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("ops/s is finite"));
        let (ops_s, stats) = runs[runs.len() / 2];
        samples.push(Sample {
            workload,
            threads,
            history,
            ops_s,
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
                format!("{:.0}", s.ops_s),
            ]
        })
        .collect();
    table(&["Workload", "Signatures", "Threads", "Ops/s"], &rows);
    let live = samples
        .iter()
        .find(|s| s.workload == Workload::VaccinateLive);
    if let Some(live) = live {
        println!(
            "\nvaccinate_live rebuilds: {} delta (max {} µs) / {} full (max {} µs)",
            live.stats.rebuilds_delta,
            live.stats.rebuild_us_delta_max,
            live.stats.rebuilds_full,
            live.stats.rebuild_us_full_max,
        );
    }

    if check_baseline {
        // Prediction smoke row: first-run immunity must keep working. The
        // workload deadlocks on a fresh empty-history runtime with
        // prediction off and must complete — with ≥ 1 predicted vaccine
        // archived and file-round-tripped — on the identical seed with
        // prediction on.
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
        // must extend the view (at least one delta rebuild; a fresh build
        // for the *first* view is expected).
        if live.is_some_and(|live| live.stats.rebuilds_delta == 0) {
            println!("\nFAIL: live vaccination never took the delta-rebuild path");
            std::process::exit(1);
        }
    }
}
