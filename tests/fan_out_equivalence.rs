//! One VM run driving several machines' simulators
//! (`xflow_sim::simulate_machines`) is the same ground truth as one run per
//! machine: every report is bit-equal to the per-machine
//! `simulate_with_seed`, the run's profile serializes byte-equal to the
//! profiled run's (`profile_seeded`), and a run that fails fails with the
//! same error either way.

use xflow::xflow_minilang as ml;
use xflow::xflow_sim::reference::{assert_reports_bit_equal, simulate_reference};
use xflow::xflow_sim::{simulate_machines, simulate_with_seed, SimConfig};
use xflow::{bgq, generic, knl, xeon, InputSpec, MachineModel, Scale};

fn machines() -> [MachineModel; 4] {
    [bgq(), xeon(), knl(), generic()]
}

/// Fan out over `runs` and hold every report and the profile to the
/// one-machine paths.
fn assert_fan_out_matches(prog: &ml::Program, inputs: &InputSpec, runs: &[(&MachineModel, SimConfig)], ctx: &str) {
    let seed = ml::DEFAULT_SEED;
    let (profile, reports, ret) = simulate_machines(prog, inputs, runs, seed).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    assert_eq!(reports.len(), runs.len(), "{ctx}: one report per machine");
    for ((m, cfg), report) in runs.iter().zip(&reports) {
        let alone = simulate_with_seed(prog, inputs, m, cfg.clone(), seed).unwrap();
        assert_reports_bit_equal(report, &alone, &format!("{ctx} on {}", m.name));
    }
    let profiled = ml::profile_seeded(prog, inputs, seed).unwrap();
    assert_eq!(serde_json::to_string(&profile).unwrap(), serde_json::to_string(&profiled).unwrap(), "{ctx}: profile");
    let (_, _, vm_ret) = ml::compile(prog).unwrap().run(inputs, ml::NullTracer, ml::Limits::default(), seed).unwrap();
    assert_eq!(ret.to_bits(), vm_ret.to_bits(), "{ctx}: main's return value");
}

#[test]
fn fan_out_matches_per_machine_runs_on_every_workload() {
    let machines = machines();
    let mut overridden = 0;
    for w in xflow::xflow_workloads::all() {
        let prog = w.program();
        let inputs = w.inputs(Scale::Test);
        let runs: Vec<(&MachineModel, SimConfig)> = machines.iter().map(|m| (m, w.sim_config(&prog, m))).collect();
        overridden += runs.iter().filter(|(_, cfg)| !cfg.vector_overrides.is_empty()).count();
        assert_fan_out_matches(&prog, &inputs, &runs, w.name);
    }
    assert!(overridden > 0, "some workload carries vectorization overrides");
}

#[test]
fn fan_out_matches_the_reference_engine() {
    let w = xflow::xflow_workloads::cfd();
    let (prog, inputs) = (w.program(), w.inputs(Scale::Test));
    let m = bgq();
    let cfg = w.sim_config(&prog, &m);
    let runs = [(&xeon(), SimConfig::default()), (&m, cfg.clone())];
    let (_, reports, _) = simulate_machines(&prog, &inputs, &runs, ml::DEFAULT_SEED).expect("simulates");
    let reference = simulate_reference(&prog, &inputs, &m, cfg).expect("reference simulates");
    assert_reports_bit_equal(&reports[1], &reference, "CFD on BG/Q: fan-out vs reference");
}

#[test]
fn fan_out_matches_per_machine_runs_on_generated_programs() {
    let machines = machines();
    let runs: Vec<(&MachineModel, SimConfig)> = machines.iter().map(|m| (m, SimConfig::default())).collect();
    for seed in 0..16 {
        let src = xflow::xflow_validate::render(&xflow::xflow_validate::generate(seed, &Default::default()));
        let prog = ml::parse(&src).expect("generated programs parse");
        assert_fan_out_matches(&prog, &InputSpec::new(), &runs, &format!("gen seed {seed}"));
    }
}

#[test]
fn a_failing_run_fails_alike_either_way() {
    let programs = [
        ("IndexOutOfBounds", "fn main() { let a = zeros(4); for i in 0 .. 8 { a[i] = i; } }"),
        ("RecursionLimitExceeded", "fn f(x) { return f(x + 1); }\nfn main() { let y = f(0); }"),
        ("ArrayTooLarge", "fn main() { let a = zeros(1e12); }"),
    ];
    let machines = machines();
    let runs: Vec<(&MachineModel, SimConfig)> = machines.iter().map(|m| (m, SimConfig::default())).collect();
    for (what, src) in programs {
        let prog = ml::parse(src).unwrap();
        let fanned = simulate_machines(&prog, &InputSpec::new(), &runs, ml::DEFAULT_SEED).map(|_| ()).unwrap_err();
        let alone = simulate_with_seed(&prog, &InputSpec::new(), &bgq(), SimConfig::default(), ml::DEFAULT_SEED)
            .map(|_| ())
            .unwrap_err();
        let profiled = ml::profile_seeded(&prog, &InputSpec::new(), ml::DEFAULT_SEED).map(|_| ()).unwrap_err();
        assert!(format!("{fanned:?}").starts_with(what), "{what}: {fanned:?}");
        assert_eq!(fanned, alone, "{what}");
        assert_eq!(fanned, profiled, "{what}");
    }
}
