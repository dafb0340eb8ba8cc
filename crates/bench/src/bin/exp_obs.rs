//! Telemetry overhead benchmark: the observed evaluator with the noop
//! recorder against a replica of the pre-telemetry evaluation loop.
//!
//! The replica below is the projection loop exactly as it existed before
//! the recorder was threaded through (no `enabled()` gate, no provenance
//! emission); bit-equality against `ProjectionPlan::evaluate` is asserted
//! before anything is timed, so the two arms provably do the same
//! arithmetic. Interleaved min-of-K sampling over a design grid then
//! bounds the cost of the disabled telemetry path, which must stay under
//! 2%.
//!
//! Writes `results/BENCH_obs.json`.

use std::collections::HashMap;
use xflow::{generic, Axis, CollectingRecorder, DesignSpace, ModeledApp, NoopRecorder, Roofline, SweepOptions};
use xflow_bench::{min_of_k, min_of_k_interleaved, opts};
use xflow_hotspot::{NodeCost, Projection, ProjectionPlan, StmtCosts};
use xflow_hw::{MachineModel, PerfModel};

/// The evaluation loop as shipped before the telemetry layer: identical
/// arithmetic and allocation pattern, no recorder anywhere.
fn evaluate_baseline(plan: &ProjectionPlan, machine: &MachineModel, model: &dyn PerfModel) -> Projection {
    let enr = plan.enr();
    let mut node_costs = vec![NodeCost { per_invocation: Default::default(), enr: 0.0, total: 0.0 }; enr.len()];
    for (i, nc) in node_costs.iter_mut().enumerate() {
        nc.enr = enr[i];
    }
    let mut per_stmt = StmtCosts::with_stmt_capacity(plan.stmt_bound());
    let mut total_time = 0.0;
    for block in plan.blocks() {
        let e = block.summary.enr;
        let time = model.project_block(machine, &block.summary);
        let total = time.total * e;
        total_time += total;
        node_costs[block.node as usize] = NodeCost { per_invocation: time, enr: e, total };
        if let Some(stmt) = block.stmt {
            if time.total > 0.0 {
                let s = per_stmt.entry_mut(stmt);
                s.total += total;
                s.tc += time.tc * e;
                s.tm += time.tm * e;
                s.overlap += time.overlap * e;
                s.metrics.add_scaled(&block.stmt_metrics, e);
            }
        }
    }
    Projection { node_costs, per_stmt, total_time, unknown_libs: plan.unknown_libs().to_vec() }
}

fn main() {
    let o = opts();
    let w = xflow_workloads::cfd();
    let app = ModeledApp::from_workload(&w, o.scale).expect("pipeline");
    let plan = app.plan();
    let machines = DesignSpace::grid(
        generic(),
        vec![Axis::dram_bw(&[0.5, 1.0, 2.0, 4.0, 8.0]), Axis::mlp(&[2.0, 4.0, 8.0, 16.0, 32.0])],
    )
    .machines()
    .to_vec();
    println!("=== telemetry overhead: {}-point grid on {} ===\n", machines.len(), w.name);

    // Every arm projects through the same opaque `&dyn PerfModel`: a
    // visible constant `&Roofline` lets the compiler devirtualize and
    // inline `project_block` into whichever evaluator it specializes,
    // which times code generation, not telemetry.
    let model: &dyn PerfModel = std::hint::black_box(&Roofline);

    // the replica and the product path must agree to the bit before any
    // timing is meaningful
    for m in &machines {
        let base = evaluate_baseline(plan, m, model);
        let noop = plan.evaluate(m, model);
        assert_eq!(base.total_time.to_bits(), noop.total_time.to_bits(), "replica must match evaluate on {}", m.name);
    }

    // the three arms take turns, sample by sample, so host drift lands on
    // all of them alike instead of on whichever ran last
    let (samples, passes) = if matches!(o.scale, xflow::Scale::Test) { (5, 40) } else { (9, 400) };
    let mut arm_baseline = || {
        for m in &machines {
            std::hint::black_box(evaluate_baseline(plan, m, model).total_time);
        }
    };
    let mut arm_noop = || {
        for m in &machines {
            std::hint::black_box(plan.evaluate_observed(m, model, &NoopRecorder).total_time);
        }
    };
    let mut arm_collecting = || {
        let rec = CollectingRecorder::new();
        for m in &machines {
            std::hint::black_box(plan.evaluate_observed(m, model, &rec).total_time);
        }
    };
    let times = min_of_k_interleaved(samples, passes, &mut [&mut arm_baseline, &mut arm_noop, &mut arm_collecting]);
    let (baseline_s, noop_s, collecting_s) = (times[0], times[1], times[2]);

    let noop_overhead = noop_s / baseline_s - 1.0;
    let collecting_overhead = collecting_s / baseline_s - 1.0;
    println!("pre-telemetry replica, per grid pass:   {baseline_s:>12.3e} s");
    println!("noop recorder, per grid pass:           {noop_s:>12.3e} s  ({:+.2}%)", noop_overhead * 100.0);
    println!("collecting recorder, per grid pass:     {collecting_s:>12.3e} s  ({:+.2}%)", collecting_overhead * 100.0);

    // sweep-level sanity: the public sweep path (noop) vs a traced sweep
    let sweep_noop_s = min_of_k(samples, passes.min(40) / 4 + 1, || {
        let space = DesignSpace::from_machines(machines.iter().cloned());
        std::hint::black_box(space.sweep_opts(&app, SweepOptions::with_threads(1)).points.len());
    });
    let sweep_traced_s = min_of_k(samples, passes.min(40) / 4 + 1, || {
        let space = DesignSpace::from_machines(machines.iter().cloned());
        let rec = CollectingRecorder::new();
        let opts = SweepOptions { recorder: &rec, ..SweepOptions::with_threads(1) };
        std::hint::black_box(space.sweep_opts(&app, opts).points.len());
    });
    println!("\nsweep, noop recorder:                   {sweep_noop_s:>12.3e} s");
    println!("sweep, collecting recorder:             {sweep_traced_s:>12.3e} s");

    #[derive(serde::Serialize)]
    struct ObsBench {
        workload: String,
        grid_points: usize,
        baseline_grid_seconds: f64,
        noop_grid_seconds: f64,
        collecting_grid_seconds: f64,
        noop_overhead: f64,
        collecting_overhead: f64,
        sweep_noop_seconds: f64,
        sweep_traced_seconds: f64,
        extra: HashMap<String, f64>,
    }
    let data = ObsBench {
        workload: w.name.to_string(),
        grid_points: machines.len(),
        baseline_grid_seconds: baseline_s,
        noop_grid_seconds: noop_s,
        collecting_grid_seconds: collecting_s,
        noop_overhead,
        collecting_overhead,
        sweep_noop_seconds: sweep_noop_s,
        sweep_traced_seconds: sweep_traced_s,
        extra: HashMap::new(),
    };
    std::fs::create_dir_all("results").expect("create results dir");
    let path = "results/BENCH_obs.json";
    std::fs::write(path, serde_json::to_string_pretty(&data).expect("serialize")).expect("write json");
    println!("\n[json written to {path}]");

    assert!(
        noop_overhead < 0.02,
        "disabled telemetry must cost under 2% of the pre-telemetry evaluator (got {:+.2}%)",
        noop_overhead * 100.0
    );
}
