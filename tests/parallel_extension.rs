//! Integration tests for the parallel-loop extension (the paper's "project
//! multi-[core] execution" future-work direction): `parfor`/`parloop`
//! syntax, available-parallelism propagation through the BET, and the
//! shared-bandwidth parallel roofline.

use xflow::{bgq, generic, InputSpec, MachineBuilder, ModeledApp};
use xflow_hw::{BlockMetrics, PerfModel, Roofline};
use xflow_skeleton::expr::env_from;

#[test]
fn parloop_skeleton_round_trips() {
    let src = "func main() { parloop i = 0 .. n { comp { flops: 8, loads: 2 } } }";
    let prog = xflow_skeleton::parse(src).unwrap();
    let text = xflow_skeleton::print(&prog);
    assert!(text.contains("parloop i = 0 .. n"), "{text}");
    assert_eq!(xflow_skeleton::parse(&text).unwrap(), prog);
}

#[test]
fn parfor_minilang_round_trips_and_translates() {
    let src = r#"
fn main() {
    let n = input("N", 64);
    let a = zeros(n);
    @kern: parfor i in 0 .. n { a[i] = i * 2.0; }
}
"#;
    let prog = xflow_minilang::parse(src).unwrap();
    let text = xflow_minilang::print(&prog);
    assert!(text.contains("parfor i in 0 .. n"), "{text}");
    assert_eq!(xflow_minilang::parse(&text).unwrap(), prog);

    // parallelism is preserved through translation
    let prof = xflow_minilang::profile(&prog, &InputSpec::new()).unwrap();
    let t = xflow_minilang::translate(&prog, &prof).unwrap();
    let sk_text = xflow_skeleton::print(&t.skeleton);
    assert!(sk_text.contains("parloop"), "{sk_text}");
}

#[test]
fn parfor_execution_is_functionally_sequential() {
    // the profiling interpreter runs parfor bodies in order (reference
    // semantics) — results match the sequential loop exactly
    let par = "fn main() { let a = zeros(8); parfor i in 0 .. 8 { a[i] = i; } print(a[7]); }";
    let seq = "fn main() { let a = zeros(8); for i in 0 .. 8 { a[i] = i; } print(a[7]); }";
    let pp = xflow_minilang::profile(&xflow_minilang::parse(par).unwrap(), &InputSpec::new()).unwrap();
    let sp = xflow_minilang::profile(&xflow_minilang::parse(seq).unwrap(), &InputSpec::new()).unwrap();
    assert_eq!(pp.printed, sp.printed);
}

#[test]
fn bet_tracks_available_parallelism() {
    let src = r#"
func main() {
  parloop i = 0 .. 64 {
    loop j = 0 .. 100 { comp { flops: 4 } }
  }
}
"#;
    let prog = xflow_skeleton::parse(src).unwrap();
    let bet = xflow_bet::build(&prog, &env_from([("x", 0.0)])).unwrap();
    let par = bet.available_parallelism();
    let comp = bet.iter().find(|n| n.kind.tag() == "comp").unwrap();
    assert_eq!(par[comp.id.0 as usize], 64.0);
}

#[test]
fn parallel_rooline_scales_compute_not_bandwidth() {
    let m = generic();
    let compute = BlockMetrics { flops: 10_000.0, elem_bytes: 8.0, ..Default::default() };
    let memory = BlockMetrics { loads: 10_000.0, elem_bytes: 64.0, ..Default::default() };

    // compute-bound block: near-linear speedup
    let seq = Roofline.project(&m, &compute).total;
    let par = Roofline.project_parallel(&m, &compute, 8.0).total;
    assert!((seq / par - 8.0).abs() < 0.5, "speedup {}", seq / par);

    // bandwidth-bound streaming block: the shared-bus term does not scale
    let seq_m = Roofline.project(&m, &memory);
    let par_m = Roofline.project_parallel(&m, &memory, 8.0);
    assert!(seq_m.tm / par_m.tm < 2.0, "memory speedup {} should saturate", seq_m.tm / par_m.tm);
}

#[test]
fn parallel_loop_reduces_projected_total() {
    let seq_src = "func main() { loop i = 0 .. 100000 { comp { flops: 64 } } }";
    let par_src = "func main() { parloop i = 0 .. 100000 { comp { flops: 64 } } }";
    let env = env_from([("x", 0.0)]);
    let libs = xflow_sim::calibrate_library(64);
    let m = bgq();
    let total = |src: &str| {
        let prog = xflow_skeleton::parse(src).unwrap();
        let bet = xflow_bet::build(&prog, &env).unwrap();
        xflow_hotspot::ProjectionPlan::new(&bet, &libs).evaluate(&m, &Roofline).total_time
    };
    let seq = total(seq_src);
    let par = total(par_src);
    let speedup = seq / par;
    // 16 BG/Q cores on a compute-bound loop: close to 16×
    assert!(speedup > 10.0 && speedup <= 16.5, "speedup {speedup}");
}

#[test]
fn strong_scaling_bends_at_the_memory_wall() {
    // streaming parallel loop: speedup saturates once shared bandwidth binds
    let src = r#"
fn main() {
    let n = input("N", 50000);
    let a = zeros(n);
    let b = zeros(n);
    @stream: parfor i in 0 .. n { b[i] = a[i] * 1.0001 + 0.5; }
}
"#;
    let app = ModeledApp::from_source(src, &InputSpec::new()).unwrap();
    let total_at = |cores: u32| {
        let m = MachineBuilder::from(generic()).build();
        let mut m = m;
        m.cores = cores;
        app.project_on(&m).total
    };
    let t1 = total_at(1);
    let t4 = total_at(4);
    let t64 = total_at(64);
    let s4 = t1 / t4;
    let s64 = t1 / t64;
    assert!(s4 > 1.5, "4-core speedup {s4}");
    // far from linear at 64 cores: the bus is shared
    assert!(s64 < 32.0, "64-core speedup {s64} should bend");
    assert!(s64 >= s4 - 1e-9, "more cores never slower");
}

#[test]
fn sequential_programs_are_unaffected_by_the_extension() {
    // a program without parfor projects identically whether or not the
    // machine has many cores
    let src = "fn main() { let a = zeros(64); for i in 0 .. 64 { a[i] = i; } }";
    let app = ModeledApp::from_source(src, &InputSpec::new()).unwrap();
    let mut one = generic();
    one.cores = 1;
    let mut many = generic();
    many.cores = 64;
    let t1 = app.project_on(&one).total;
    let t64 = app.project_on(&many).total;
    assert!((t1 - t64).abs() < 1e-18, "{t1} vs {t64}");
}
