//! Strong-scaling projection with `parfor` — the parallel-loop extension.
//!
//! Projects an OpenMP-style parallelized stencil at increasing core counts
//! on a BG/Q-like node and shows where the speedup curve bends: the
//! compute-bound kernel scales, the streaming kernel saturates at the
//! shared memory bandwidth, and the hot spot ranking flips accordingly —
//! precisely the kind of insight a co-design study needs before committing
//! to a core count.
//!
//! ```sh
//! cargo run --release --example parallel_scaling
//! ```

use xflow::{bgq, Axis, DesignSpace, InputSpec, ModeledApp, SweepOptions, EVAL_CRITERIA};

const SRC: &str = r#"
// Hybrid workload: a flop-dense phase and a streaming phase, both parallel.
fn main() {
    let n = input("N", 200000);
    let a = zeros(n);
    let b = zeros(n);

    @init: for i in 0 .. n { a[i] = rnd(); }

    for t in 0 .. 10 {
        // compute-dense: 64 flops per element, scales with cores
        @dense: parfor i in 0 .. n {
            let x = a[i];
            let y = x * x + 0.5;
            let z = y * y - x;
            let w = z * z + y * x;
            b[i] = w * w + z * y + x;
        }
        // streaming: 2 flops per element, bound by shared bandwidth
        @stream: parfor i in 0 .. n {
            a[i] = b[i] * 0.999 + 0.001;
        }
    }
    print(a[0]);
}
"#;

fn main() {
    let app = ModeledApp::from_source(SRC, &InputSpec::new()).expect("pipeline");

    println!("strong scaling of a hybrid parallel workload (BG/Q-like node)\n");
    println!(
        "{:>6} {:>13} {:>9} {:>13} {:>13} {:>22}",
        "cores", "total (s)", "speedup", "dense (s)", "stream (s)", "projected top spot"
    );

    // a core-count axis swept from one projection plan; the baseline point
    // (1 core) anchors the speedup column via the sweep's deltas
    let cores = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];
    let sweep = DesignSpace::grid(bgq(), vec![Axis::cores(&cores)]).sweep_opts(&app, SweepOptions::default());
    let deltas = sweep.deltas();
    for (point, delta) in sweep.points.iter().zip(&deltas) {
        let mp = sweep.hydrate(&app, point.index);
        let unit_named = |prefix: &str| {
            mp.unit_breakdown.iter().find(|(&u, _)| app.units.name(u).starts_with(prefix)).map_or(0.0, |(_, c)| c.total)
        };
        let top = point.top_unit.expect("non-empty projection");
        println!(
            "{:>6} {:>13.4e} {:>8.1}x {:>13.4e} {:>13.4e} {:>22}",
            mp.machine.cores,
            mp.total,
            delta.speedup,
            unit_named("dense"),
            unit_named("stream"),
            app.units.name(top),
        );
    }

    let mut m = bgq();
    m.cores = 16;
    let mp = app.project_on(&m);
    let sel = mp.select(&app.units, EVAL_CRITERIA);
    println!("\nhot spots at 16 cores:");
    for s in &sel.spots {
        let b = &mp.unit_breakdown[&s.stmt];
        println!(
            "  #{:<2} {:<14} {:>6.2}%  {}",
            s.rank + 1,
            app.units.name(s.stmt),
            s.coverage * 100.0,
            if b.tm > b.tc { "memory-bound (shared bus)" } else { "compute-bound (scales)" }
        );
    }
    println!("\n→ past the bend, extra cores only help the dense phase; the");
    println!("  streaming phase (and soon the whole application) is pinned to");
    println!("  the shared memory bandwidth — the co-design lever to buy next.");
}
