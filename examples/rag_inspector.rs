//! Renders the monitor's resource allocation graph as Graphviz DOT while a
//! deadlock is in flight — Figure 2 of the paper, generated live.
//!
//! Run with: `cargo run --example rag_inspector`
//! Pipe into Graphviz: `cargo run --example rag_inspector | dot -Tpng -o rag.png`

use dimmunix::{Config, Decision, Runtime};

fn main() {
    let rt = Runtime::new(Config::default()).expect("runtime");
    let core = rt.core();
    let t13 = core.register_thread().unwrap();
    let t22 = core.register_thread().unwrap();
    let l5 = rt.new_lock_id();
    let l7 = rt.new_lock_id();

    // Recreate Figure 2's fragment: T22 holds L5 (stack Sx) and blocks on
    // L7, which T13 holds (stack Sy); T13 yields because of T22.
    let sx = rt.make_site(&[
        ("onEvent", "server.rs", 72),
        ("handleRequest", "server.rs", 19),
        ("doFilter", "server.rs", 34),
        ("acquireSocket", "net.rs", 44),
    ]);
    let sy = rt.make_site(&[
        ("onEvent", "server.rs", 72),
        ("handleRequest", "server.rs", 16),
        ("doForwardReq", "server.rs", 54),
        ("lockReq", "net.rs", 14),
    ]);

    core.request(t13, l7, sy.frames(), sy.stack());
    core.acquired(t13, l7, sy.stack());
    core.request(t22, l5, sx.frames(), sx.stack());
    core.acquired(t22, l5, sx.stack());
    core.request(t22, l7, sx.frames(), sx.stack());
    // L7 is taken: T22 publishes its allow edge and blocks.
    core.waiting(t22, l7, sx.stack());

    // Seed a signature {Sx, Sy} so T13's request yields (as in the figure).
    rt.history()
        .add(
            dimmunix::CycleKind::Deadlock,
            vec![sx.stack(), sy.stack()],
            4,
        )
        .unwrap();
    rt.history().touch();
    let d = core.request(t13, l5, sy.frames(), sy.stack());
    assert!(matches!(d, Decision::Yield { .. }));

    rt.step_monitor();
    println!("{}", rt.rag_dot());
    eprintln!("(threads are circles, locks boxes, yields dashed — cf. paper Figure 2)");
}
