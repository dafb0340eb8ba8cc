//! The full analysis pipeline, step by step, on visible intermediate
//! artifacts: source → profiled run → generated skeleton text → BET →
//! per-machine projection (paper Figure 1, made inspectable).
//!
//! ```sh
//! cargo run --release --example minilang_pipeline
//! ```

use xflow::{generic, initial_env, InputSpec};
use xflow_minilang::{parse, profile, translate};

const SRC: &str = r#"
// histogram with a data-dependent filter and a library call
fn main() {
    let n = input("N", 50000);
    let bins = input("BINS", 64);
    let data = zeros(n);
    let hist = zeros(bins);

    @gen: for i in 0 .. n {
        data[i] = rnd();
    }

    @binning: for i in 0 .. n {
        if data[i] > 0.125 {
            let b = floor(data[i] * bins);
            hist[min(b, bins - 1)] += 1;
        }
    }

    let norm = 0;
    @normalize: for b in 0 .. bins {
        norm = norm + hist[b];
    }
    print(norm);
}
"#;

fn main() {
    let inputs = InputSpec::new();

    // step 1: parse + one profiled run on the "local machine"
    let prog = parse(SRC).expect("parse");
    let prof = profile(&prog, &inputs).expect("run");
    println!("— step 1: local profiled run");
    println!("  dynamic ops        : {}", prof.total_ops());
    println!("  library calls      : {:?}", prof.lib_calls);
    for (id, b) in &prof.branches {
        println!(
            "  branch {:?} arm probabilities: {:?}",
            id,
            (0..b.arm_hits.len()).map(|i| b.arm_prob(i)).collect::<Vec<_>>()
        );
    }

    // step 2: source → skeleton translation with profile folded in
    let t = translate(&prog, &prof).expect("translate");
    println!("\n— step 2: generated code skeleton (SKOPE-style)\n");
    println!("{}", xflow_skeleton::print(&t.skeleton));
    if !t.warnings.is_empty() {
        println!("  translation notes: {:?}", t.warnings);
    }

    // step 3: BET for the bound inputs
    let env = initial_env(&t, &inputs);
    let bet = xflow_bet::build(&t.skeleton, &env).expect("bet");
    println!("— step 3: Bayesian Execution Tree");
    println!("  nodes: {} ({} skeleton statements)", bet.len(), t.skeleton.source_statement_count());
    let enr = bet.enr();
    let max_enr = enr.iter().cloned().fold(0.0f64, f64::max);
    println!("  max expected repetitions: {max_enr:.0}");

    // step 4: projection with the roofline model
    let machine = generic();
    let libs = xflow_sim::calibrate_library(512);
    let projection = xflow_hotspot::ProjectionPlan::new(&bet, &libs).evaluate(&machine, &xflow_hw::Roofline);
    println!("\n— step 4: projection on `{}`", machine.name);
    println!("  projected total: {:.3e} s", projection.total_time);
    let names = t.skeleton.stmt_names();
    let ranked = xflow_hotspot::rank_units(projection.per_stmt.iter().map(|(stmt, c)| (stmt, c.total)));
    for stmt in ranked.into_iter().take(5) {
        let cost = &projection.per_stmt[stmt];
        println!(
            "  {:<28} {:>10.3e} s   Tc {:>9.3e}  Tm {:>9.3e}",
            names.get(&stmt).cloned().unwrap_or_default(),
            cost.total,
            cost.tc,
            cost.tm
        );
    }

    // the input-size independence claim, demonstrated
    println!("\n— analysis cost is input-size independent:");
    for n in [1e4, 1e6, 1e8] {
        let inputs = InputSpec::from_pairs([("N", n)]);
        let env = initial_env(&t, &inputs);
        let start = std::time::Instant::now();
        let bet = xflow_bet::build(&t.skeleton, &env).expect("bet");
        let dt = start.elapsed();
        println!("  N = {n:>9.0}: BET nodes = {}, build time = {dt:?}", bet.len());
    }
}
