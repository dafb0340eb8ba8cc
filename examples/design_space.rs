//! Software-hardware co-design: sweep hardware parameters and watch hot
//! spots and bottlenecks shift — the use case that motivates the paper.
//!
//! The sweep varies sustainable memory bandwidth and memory-level
//! parallelism (outstanding misses) around the generic machine and reports,
//! for each design point, the projected time of CFD and which block is the
//! bottleneck. CFD's face-flux gather is latency-bound — MLP is the lever
//! that moves it, and once it is cheap the bottleneck migrates to the
//! compute blocks.
//!
//! The grid is described once with [`DesignSpace::grid`] and evaluated with
//! the parallel sweep API: the application is compiled into a projection
//! plan a single time, and the 25 design points share it across a worker
//! pool.
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use xflow::{generic, Axis, DesignSpace, ModeledApp, Scale, SweepOptions};

fn main() {
    let w = xflow_workloads::cfd();
    // evaluation scale: the solver kernels dominate the one-time setup
    let app = ModeledApp::from_workload(&w, Scale::Eval).expect("pipeline");

    let bw_points = [0.5, 1.0, 2.0, 4.0, 8.0];
    let mlp_points = [2.0, 4.0, 8.0, 16.0, 32.0];

    // one plan, 25 machines, all available worker threads
    let space = DesignSpace::grid(generic(), vec![Axis::dram_bw(&bw_points), Axis::mlp(&mlp_points)]);
    let sweep = space.sweep_opts(&app, SweepOptions::default());

    println!("workload: {} — projected total seconds per design point", w.name);
    println!("(rows: GB/s per core; columns: memory-level parallelism)\n");
    print!("{:>8} ", "bw\\mlp");
    for f in mlp_points {
        print!("{f:>12} ");
    }
    println!();

    // grid point order is row-major: bandwidth rows, MLP varying fastest
    for (bi, bw) in bw_points.iter().enumerate() {
        print!("{:>8} ", format!("{bw}GB/s"));
        for fi in 0..mlp_points.len() {
            let p = &sweep.points[bi * mlp_points.len() + fi];
            print!("{:>12.3e} ", p.total);
        }
        println!();
    }

    println!("\ntop hot spot and its bound (C = compute, M = memory) per design point:\n");
    for (bi, bw) in bw_points.iter().enumerate() {
        print!("{:>8} ", format!("{bw}GB/s"));
        for fi in 0..mlp_points.len() {
            let p = &sweep.points[bi * mlp_points.len() + fi];
            let name = match p.top_unit {
                Some(top) => {
                    let tag = if p.memory_bound { "M" } else { "C" };
                    format!("{}({tag})", app.units.name(top))
                }
                None => "-".into(),
            };
            print!("{name:>24} ");
        }
        println!();
    }

    let best = sweep.best().expect("non-empty sweep");
    let deltas = sweep.deltas();
    println!(
        "\nfastest point: {} ({:.3e} s, {:.2}x the baseline corner)",
        best.machine, best.total, deltas[best.index].speedup
    );
    let flips = deltas.iter().filter(|d| d.bottleneck_flipped).count();
    println!("bottleneck flips vs baseline across the grid: {flips} / {}", deltas.len());

    println!("\n→ the time surface falls along the bandwidth × MLP diagonal and");
    println!("  saturates once the latency-bound flux gather is fully overlapped;");
    println!("  spending on either resource beyond the frontier buys nothing —");
    println!("  that frontier is the balanced memory system for this workload.");
}
