//! Serialization round-trips for the persistence-worthy types: machine
//! models (the CLI's `--machine-file`), skeleton programs, BETs, and
//! profiles all survive JSON without loss.

use xflow::{bgq, generic, xeon, InputSpec, MachineModel};

#[test]
fn machine_models_round_trip() {
    for m in [bgq(), xeon(), generic()] {
        let json = serde_json::to_string_pretty(&m).unwrap();
        let back: MachineModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}

#[test]
fn skeleton_program_round_trips_through_json() {
    let src = r#"
func main() {
  let n = N
  @k: parloop i = 0 .. n {
    comp { flops: 4, loads: 2, stores: 1, divs: 1, bytes: 4 }
    if prob(0.25) { lib exp(1) } else { break prob(0.5) }
  }
  call f(n / 2)
}
func f(m) { while trips(m) { comp { iops: 3 } } }
"#;
    let prog = xflow_skeleton::parse(src).unwrap();
    let json = serde_json::to_string(&prog).unwrap();
    let back: xflow_skeleton::Program = serde_json::from_str(&json).unwrap();
    assert_eq!(prog, back);
    // and the function registry still works after deserialization
    assert!(back.main().is_some());
    assert!(back.function("f").is_some());
    assert_eq!(back.stmt_by_label("k"), prog.stmt_by_label("k"));
}

#[test]
fn minilang_program_round_trips_through_json() {
    let w = xflow_workloads::cfd();
    let prog = w.program();
    let json = serde_json::to_string(&prog).unwrap();
    let back: xflow_minilang::Program = serde_json::from_str(&json).unwrap();
    assert_eq!(prog, back);
}

#[test]
fn bet_round_trips_through_json() {
    let prog =
        xflow_skeleton::parse("func main() { loop i = 0 .. 100 { comp { flops: 2 } if prob(0.5) { lib rand(1) } } }")
            .unwrap();
    let bet = xflow_bet::build(&prog, &Default::default()).unwrap();
    let json = serde_json::to_string(&bet).unwrap();
    let back: xflow_bet::Bet = serde_json::from_str(&json).unwrap();
    assert_eq!(bet.len(), back.len());
    assert_eq!(bet.enr(), back.enr());
    assert_eq!(bet.available_parallelism(), back.available_parallelism());
}

#[test]
fn profile_round_trips_through_json() {
    let w = xflow_workloads::stassuij();
    let prog = w.program();
    let prof = xflow_minilang::profile(&prog, &w.inputs(xflow::Scale::Test)).unwrap();
    let json = serde_json::to_string(&prof).unwrap();
    let back: xflow_minilang::Profile = serde_json::from_str(&json).unwrap();
    assert_eq!(prof.total_ops(), back.total_ops());
    assert_eq!(prof.branches, back.branches);
    assert_eq!(prof.loops, back.loops);
    assert_eq!(prof.lib_calls, back.lib_calls);
}

#[test]
fn deserialized_skeleton_projects_identically() {
    // a skeleton that has been through JSON must produce an identical BET
    // and projection (the registry/id invariants survive)
    let src = "func main() { loop i = 0 .. n { comp { flops: 8, loads: 4 } } }";
    let prog = xflow_skeleton::parse(src).unwrap();
    let json = serde_json::to_string(&prog).unwrap();
    let back: xflow_skeleton::Program = serde_json::from_str(&json).unwrap();

    let env = xflow_skeleton::env_from([("n", 1000.0)]);
    let libs = xflow_sim::calibrate_library(64);
    let m = bgq();
    let project = |prog| {
        xflow_hotspot::ProjectionPlan::new(&xflow_bet::build(prog, &env).unwrap(), &libs).evaluate(&m, &xflow::Roofline)
    };
    let (a, b) = (project(&prog), project(&back));
    assert_eq!(a.total_time, b.total_time);
}

#[test]
fn input_spec_is_clonable_and_stable() {
    let mut i = InputSpec::new();
    i.set("N", 42.0).set("M", 7.0);
    let j = i.clone();
    assert_eq!(j.get_or("N", 0.0), 42.0);
    assert_eq!(j.get_or("M", 0.0), 7.0);
    assert_eq!(j.get_or("missing", 3.0), 3.0);
}
