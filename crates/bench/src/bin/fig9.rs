//! Regenerates **Figure 9**: overhead induced by false positives as a
//! function of the matching stack depth, plus the §7.3 gate-lock
//! comparison.
//!
//! A true positive is an avoidance whose instance also matches at full
//! depth D = 10; matching at k < D can fire on stacks that diverge above
//! the suffix — false positives whose yields cost throughput. The paper
//! measures FP overhead decaying from ~61% (depth 1) to ~0 (depth ≥ 8),
//! with Dimmunix's own overhead at 4.6%; gate locks \[17\] needed 45 gates
//! for the 64-signature history, produced 561,627 false positives and 70%
//! overhead — comparable to depth-1 Dimmunix and an order of magnitude
//! worse than depth-8.

use dimmunix_bench::microbench::{build_pool, intern_pool, run_micro, Engine, Flavor, MicroParams};
use dimmunix_bench::report::{arg_u64, banner, pct, scale_from_args, table, Scale};
use dimmunix_bench::siggen;
use dimmunix_bench::GateLockTable;
use dimmunix_core::{Config, Runtime};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const FULL_DEPTH: u8 = 10;

fn params(scale: Scale) -> MicroParams {
    MicroParams {
        threads: arg_u64("threads", if scale == Scale::Quick { 16 } else { 64 }) as usize,
        locks: 8,
        delta_in_us: 1_000,
        delta_out_us: 1_000,
        duration: Duration::from_millis(arg_u64(
            "duration-ms",
            match scale {
                Scale::Quick => 150,
                Scale::Normal => 350,
                Scale::Full => 1_000,
            },
        )),
        depth: FULL_DEPTH as usize,
        path_pool: 256,
        lock_sites: 16,
        seed: 42,
        flavor: Flavor::Raw,
    }
}

fn main() {
    let scale = scale_from_args();
    let p = params(scale);
    banner(&format!(
        "Figure 9: FP-induced overhead vs. matching depth ({} threads, 8 locks, 64 sigs, \
         din=dout=1ms, D={FULL_DEPTH})",
        p.threads
    ));
    let base = run_micro(&p, &Engine::Baseline);
    println!("baseline: {:.0} ops/s\n", base.ops_per_sec());

    let mut rows = Vec::new();
    for depth in 1..=FULL_DEPTH {
        // Full Dimmunix at this matching depth.
        let rt = Runtime::start(Config {
            structural_fp_reference_depth: Some(FULL_DEPTH),
            ..Config::default()
        })
        .unwrap();
        let pool = build_pool(&p);
        siggen::synthesize_history(&rt, &siggen::pool_frames(&pool), 64, 2, 5, depth);
        let full = run_micro(&p, &Engine::Dimmunix(rt.clone()));
        rt.shutdown();

        // Dimmunix with decisions ignored: its own overhead, FP-free.
        let rt = Runtime::start(Config {
            enforce_yields: false,
            structural_fp_reference_depth: Some(FULL_DEPTH),
            ..Config::default()
        })
        .unwrap();
        siggen::synthesize_history(&rt, &siggen::pool_frames(&pool), 64, 2, 5, depth);
        let ignored = run_micro(&p, &Engine::Dimmunix(rt.clone()));
        rt.shutdown();

        let total = full.overhead_vs(&base);
        let own = ignored.overhead_vs(&base);
        rows.push(vec![
            depth.to_string(),
            full.structural_fps.to_string(),
            full.structural_tps.to_string(),
            pct(own),
            pct(total - own),
            pct(total),
        ]);
    }
    table(
        &[
            "Depth",
            "False positives",
            "True positives",
            "Dimmunix own",
            "FP-induced",
            "Total overhead",
        ],
        &rows,
    );

    // --- Gate-lock comparison (§7.3) ---
    banner("Gate locks [17] on the same history");
    let rt = Runtime::new(Config::default()).unwrap();
    let pool = build_pool(&p);
    siggen::synthesize_history(&rt, &siggen::pool_frames(&pool), 64, 2, 5, 4);
    let gates = Arc::new(GateLockTable::from_history(rt.history(), rt.stack_table()));
    println!(
        "{} gate locks cover the 64-signature history ({} gated sites)",
        gates.gate_count(),
        gates.gated_sites()
    );

    // Run the same workload shape with gate-lock avoidance over plain
    // mutexes: the gate wraps the whole critical section.
    let sites = intern_pool(&rt, &pool);
    let site_frames: Vec<_> = sites
        .iter()
        .map(|s| *s.frames().last().expect("nonempty path"))
        .collect();
    let locks: Arc<Vec<Mutex<()>>> = Arc::new((0..p.locks).map(|_| Mutex::new(())).collect());
    let stop = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(p.threads + 1));
    let ops_total = Arc::new(AtomicU64::new(0));
    let mut handles = Vec::new();
    for worker in 0..p.threads {
        let gates = Arc::clone(&gates);
        let locks = Arc::clone(&locks);
        let stop = Arc::clone(&stop);
        let start = Arc::clone(&start);
        let ops_total = Arc::clone(&ops_total);
        let site_frames = site_frames.clone();
        let p = p.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(p.seed ^ (worker as u64) << 7);
            let mut ops = 0_u64;
            start.wait();
            while !stop.load(Ordering::Relaxed) {
                let path_i = rng.gen_range(0..site_frames.len());
                let lock_i = rng.gen_range(0..p.locks);
                let _gate = gates.enter(site_frames[path_i]);
                let g = locks[lock_i].lock();
                spin_for(p.delta_in_us);
                drop(g);
                drop(_gate);
                ops += 1;
                spin_for(p.delta_out_us);
            }
            ops_total.fetch_add(ops, Ordering::Relaxed);
        }));
    }
    start.wait();
    let t0 = Instant::now();
    std::thread::sleep(p.duration);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = t0.elapsed();
    let gate_ops_per_sec = ops_total.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64();
    let gate_overhead = ((base.ops_per_sec() - gate_ops_per_sec) / base.ops_per_sec()) * 100.0;
    println!(
        "gate-lock throughput: {:.0} ops/s  overhead: {}  serializations (all FPs): {}",
        gate_ops_per_sec,
        pct(gate_overhead),
        gates.serializations()
    );
    println!(
        "\nPaper shape: FP count and FP-induced overhead decay with depth (~0 by depth 8-9); \
         gate locks sit near depth-1 Dimmunix and far above depth-8 (paper: 70% vs 4.6%)."
    );
}

fn spin_for(us: u64) {
    if us == 0 {
        return;
    }
    let end = Instant::now() + Duration::from_micros(us);
    while Instant::now() < end {
        core::hint::spin_loop();
    }
}
