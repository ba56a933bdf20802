//! Regenerates **Figure 8**: breakdown of Dimmunix overhead into
//! instrumentation, data-structure updates, and avoidance.
//!
//! The runtime is staged via [`RuntimeMode`]: hooks only → hooks + RAG
//! cache updates → full avoidance. Paper result (Java flavour): the bulk of
//! the overhead comes from the data-structure lookups and updates.

use dimmunix_bench::microbench::{build_pool, run_micro, Engine, Flavor, MicroParams};
use dimmunix_bench::report::{arg_u64, banner, pct, scale_from_args, table, Scale};
use dimmunix_bench::siggen;
use dimmunix_core::{Config, Runtime, RuntimeMode};
use std::time::Duration;

fn main() {
    let scale = scale_from_args();
    let max_threads = arg_u64(
        "max-threads",
        match scale {
            Scale::Quick => 32,
            Scale::Normal => 256,
            Scale::Full => 1024,
        },
    );
    let millis = arg_u64(
        "duration-ms",
        match scale {
            Scale::Quick => 150,
            Scale::Normal => 400,
            Scale::Full => 1_000,
        },
    );

    banner(
        "Figure 8: overhead breakdown, RAII flavour, 64 sigs siglen 2, 8 locks, din=1us dout=1ms",
    );
    let mut rows = Vec::new();
    let mut t = 8_u64;
    while t <= max_threads {
        let params = MicroParams {
            threads: t as usize,
            duration: Duration::from_millis(millis),
            flavor: Flavor::Raii,
            ..MicroParams::default()
        };
        let base = run_micro(&params, &Engine::Baseline);
        let mut cells = vec![t.to_string(), format!("{:.0}", base.ops_per_sec())];
        for mode in [
            RuntimeMode::InstrumentationOnly,
            RuntimeMode::UpdatesOnly,
            RuntimeMode::Full,
        ] {
            let rt = Runtime::start(Config {
                mode,
                ..Config::default()
            })
            .unwrap();
            let pool = build_pool(&params);
            let paths = siggen::paths_for_flavor(&rt, &pool, Flavor::Raii);
            siggen::synthesize_history(&rt, &paths, 64, 2, 5, 4);
            let r = run_micro(&params, &Engine::Dimmunix(rt.clone()));
            rt.shutdown();
            cells.push(pct(r.overhead_vs(&base)));
        }
        rows.push(cells);
        t *= 2;
    }
    table(
        &[
            "Threads",
            "Base ops/s",
            "Instrumentation",
            "+ Data structures",
            "+ Avoidance",
        ],
        &rows,
    );
    println!(
        "\nPaper shape (Java): data-structure updates contribute the bulk of the overhead; \
         the avoidance increment on top is small."
    );
}
