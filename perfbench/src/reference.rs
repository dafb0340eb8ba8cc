//! `--build-expected`: compute `expected.tsv` once, cross-checking every
//! fact against an independent reference rather than the fast path the
//! workloads exercise:
//!
//! * projected totals from the scalar `ProjectionPlan::evaluate` on a plan
//!   built by calling each stage function directly, checked equal to the
//!   session path (`project_on`) and to the columnar sweep kernel;
//! * simulated `total_cycles` from `simulate_reference` (the tree-walking
//!   engine), checked equal, statement by statement, to the fast simulator;
//! * HTTP bodies built in-process, checked equal to what a live server
//!   sends.

use xflow::xflow_hotspot::ProjectionPlan;
use xflow::xflow_minilang as ml;
use xflow::xflow_sim::{simulate_reference, simulate_with_seed, SimConfig};
use xflow::{bgq, build_corpus, default_library, initial_env, xeon, DesignSpace, Roofline, Session, SweepOptions};

use crate::cold::rank10;
use crate::expected::{corpus_accuracy, expected_path, ExpectedWriter};
use crate::oracle::oracle_options;
use crate::programs::stream_pool;
use crate::rng::digest;

pub fn build() -> Result<(), String> {
    let mut w = ExpectedWriter::default();
    let machines = [("bgq", bgq()), ("xeon", xeon())];
    for p in stream_pool() {
        let id = p.id();
        let err = |e: &dyn std::fmt::Display| format!("{id}: {e}");
        let prog = ml::parse(&p.source).map_err(|e| err(&e))?;
        let profile = ml::profile(&prog, &p.inputs).map_err(|e| err(&e))?;
        let tr = ml::translate(&prog, &profile).map_err(|e| err(&e))?;
        let bet = xflow::xflow_bet::build(&tr.skeleton, &initial_env(&tr, &p.inputs)).map_err(|e| err(&e))?;
        let plan = ProjectionPlan::new(&bet, default_library());
        let app = Session::new().model(&p.source, &p.inputs).map_err(|e| err(&e))?;
        for (m, machine) in &machines {
            let scalar = plan.evaluate(machine, &Roofline).total_time;
            let session_total = app.project_on(machine).total;
            let kernel_total =
                DesignSpace::from_machines([machine.clone()]).sweep_opts(&app, SweepOptions::with_threads(1)).points[0]
                    .total;
            if scalar.to_bits() != session_total.to_bits() || scalar.to_bits() != kernel_total.to_bits() {
                return Err(format!("{id} on {m}: scalar {scalar} ≠ session {session_total} / kernel {kernel_total}"));
            }
            w.put_bits("total", &id, m, scalar);
            w.put(format!("rank10\t{id}\t{m}"), rank10(&app.project_on(machine).ranking()));

            let cfg = match &p.workload {
                Some(wl) => wl.sim_config(&prog, machine),
                None => SimConfig::default(),
            };
            let reference = simulate_reference(&prog, &p.inputs, machine, cfg.clone()).map_err(|e| err(&e))?;
            let fast = simulate_with_seed(&prog, &p.inputs, machine, cfg, ml::DEFAULT_SEED).map_err(|e| err(&e))?;
            let same_stmts = reference.stmt_cycles.len() == fast.stmt_cycles.len()
                && reference
                    .stmt_cycles
                    .iter()
                    .all(|(k, v)| fast.stmt_cycles.get(k).map(|f| f.to_bits()) == Some(v.to_bits()));
            if reference.total_cycles.to_bits() != fast.total_cycles.to_bits() || !same_stmts {
                return Err(format!("{id} on {m}: fast simulator differs from simulate_reference"));
            }
            w.put_bits("cycles", &id, m, reference.total_cycles);
        }
        let corpus = build_corpus(&Session::new(), &[p.oracle_program()], &[bgq(), xeon()], &oracle_options())
            .map_err(|e| err(&e))?;
        w.put(format!("corpus\t{id}"), digest(corpus.to_json().as_bytes()));
        for (m, (rel, q10)) in corpus_accuracy(&corpus.records) {
            w.put(format!("acc\t{id}\t{m}"), format!("{:016x},{:016x}", rel.to_bits(), q10.to_bits()));
        }
        eprintln!("expected: {id}");
    }
    let bodies = crate::serve::reference_bodies(&crate::serve::machine_registry()?)?;
    eprintln!("expected: {} HTTP bodies", bodies.len());
    for (key, d) in bodies {
        w.put(format!("body\t{key}"), d);
    }
    let path = expected_path();
    w.write(&path).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
