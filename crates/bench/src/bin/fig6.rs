//! Regenerates **Figure 6**: lock throughput as a function of δin and δout.
//!
//! Paper result: Dimmunix's overhead is largest when the program does
//! nothing but lock/unlock (δ = 0) and is absorbed as the time between (or
//! inside) critical sections grows — "for inter-critical-section intervals
//! of 1 millisecond or more, overhead is modest".

use dimmunix_bench::microbench::{build_pool, run_micro, Engine, Flavor, MicroParams};
use dimmunix_bench::report::{arg_u64, banner, pct, scale_from_args, table, Scale};
use dimmunix_bench::siggen;
use dimmunix_core::{Config, Runtime};
use std::time::Duration;

const DELTAS: [u64; 6] = [0, 1, 10, 100, 1_000, 10_000];

fn main() {
    let scale = scale_from_args();
    let millis = arg_u64(
        "duration-ms",
        match scale {
            Scale::Quick => 150,
            Scale::Normal => 400,
            Scale::Full => 1_000,
        },
    );
    let threads = arg_u64("threads", if scale == Scale::Quick { 16 } else { 64 });

    banner(&format!(
        "Figure 6: throughput vs. din / dout ({threads} threads, 8 locks, 64 sigs, RAII flavour)"
    ));

    for (sweep, fixed_name) in [("din", "dout=1000us"), ("dout", "din=1us")] {
        println!("\n-- sweep {sweep} ({fixed_name}) --");
        let mut rows = Vec::new();
        for &delta in &DELTAS {
            let params = MicroParams {
                threads: threads as usize,
                duration: Duration::from_millis(millis),
                delta_in_us: if sweep == "din" { delta } else { 1 },
                delta_out_us: if sweep == "din" { 1_000 } else { delta },
                flavor: Flavor::Raii,
                ..MicroParams::default()
            };
            let base = run_micro(&params, &Engine::Baseline);
            let rt = Runtime::start(Config::default()).unwrap();
            let pool = build_pool(&params);
            let paths = siggen::paths_for_flavor(&rt, &pool, Flavor::Raii);
            siggen::synthesize_history(&rt, &paths, 64, 2, 5, 4);
            let dlk = run_micro(&params, &Engine::Dimmunix(rt.clone()));
            rt.shutdown();
            rows.push(vec![
                format!("{delta}"),
                format!("{:.2}", base.ops_per_sec() / 1_000.0),
                format!("{:.2}", dlk.ops_per_sec() / 1_000.0),
                pct(dlk.overhead_vs(&base)),
            ]);
        }
        table(
            &[
                &format!("{sweep} [us]"),
                "Base ops/ms",
                "Dimmunix ops/ms",
                "Overhead",
            ],
            &rows,
        );
    }
    println!(
        "\nPaper shape: overhead maximal at delta=0, decaying to noise once the delta being \
         swept reaches ~1ms."
    );
}
