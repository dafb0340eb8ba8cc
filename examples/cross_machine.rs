//! Hot spot portability: the same application has *different* hot spots on
//! different machines (paper Section I and Table I).
//!
//! Profiling knowledge gained on one system does not transfer: this example
//! models SORD once, projects it on BG/Q and Xeon, and shows how the
//! rankings diverge — then verifies each projection against that machine's
//! ground-truth simulation.
//!
//! ```sh
//! cargo run --release --example cross_machine
//! ```

use xflow::{bgq, compare, xeon, MachineProjection, Measured, Scale, Session};
use xflow_hotspot::top_k_overlap;
use xflow_minilang::DEFAULT_SEED;

fn main() {
    let w = xflow_workloads::sord();
    println!("workload: {} — {}", w.name, w.description);

    // one session models SORD once and serves every target machine; each
    // machine's simulation is the same ground truth `xflow validate` reads
    let session = Session::new();
    let inputs = w.inputs(Scale::Test);
    let mut rankings = Vec::new();
    for m in [bgq(), xeon()] {
        let (app, projection, sim) =
            session.model_and_sim(w.source, &inputs, Some(&w), &m, DEFAULT_SEED).expect("pipeline");
        let mp = MachineProjection::new(&app.units, &m, projection);
        let measured = Measured::new(&app, sim);
        let cmp = compare(&mp, &measured, 10);

        println!("\n=== {} ===", m.name);
        println!("{}", cmp.format_table(&app.units, 8));
        println!(
            "model-vs-measured top-10 overlap: {} / 10, Q(5) = {:.1}%",
            cmp.top_k_overlap(10),
            cmp.quality_at(5) * 100.0
        );
        let ranking = measured.ranking();
        let top6: Vec<String> = ranking.iter().take(6).map(|&s| app.units.name(s)).collect();
        rankings.push((m.name.clone(), ranking, top6));
    }

    // the paper's portability observation: measured hot spot sets differ
    let (qa, qb) = (&rankings[0], &rankings[1]);
    let shared = top_k_overlap(&qa.1, &qb.1, 10);
    println!("\nmeasured top-10 overlap between {} and {}: {shared} / 10", qa.0, qb.0);
    println!("order on {:6}: {:?}", qa.0, qa.2);
    println!("order on {:6}: {:?}", qb.0, qb.2);
    println!("\n→ empirical knowledge from one machine is not portable;");
    println!("  the model tracks each machine's own ordering instead.");
}
