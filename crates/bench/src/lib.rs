//! # xflow-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (Section VII),
//! regenerating the same rows and series from this reproduction's substrate
//! (the ground-truth simulator in place of the physical BG/Q and Xeon).
//! See DESIGN.md for the experiment index and EXPERIMENTS.md for recorded
//! paper-vs-measured outcomes.
//!
//! Every binary accepts `--scale test|eval` (default `eval`) and prints to
//! stdout; pass `--json DIR` to also write machine-readable results.

pub mod gate;

use serde::Serialize;
use std::collections::HashMap;
use std::time::Instant;
use xflow::{bgq, compare, xeon, Comparison, MachineModel, Measured, ModeledApp, Scale, Workload};
use xflow_skeleton::StmtId;

/// Parsed common CLI options.
pub struct Opts {
    pub scale: Scale,
    pub json_dir: Option<String>,
}

/// Parse `--scale` / `--json` from `std::env::args`. An unknown flag, a
/// `--scale` other than `test` or `eval`, or a flag without its value
/// exits with code 2 (as `bench_gate` does) rather than running the slow
/// preset or writing nothing.
pub fn opts() -> Opts {
    parse_opts(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e} (options: --scale test|eval, --json DIR)");
        std::process::exit(2);
    })
}

fn parse_opts(args: impl IntoIterator<Item = String>) -> Result<Opts, String> {
    let mut opts = Opts { scale: Scale::Eval, json_dir: None };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = match flag.as_str() {
            "--scale" | "--json" => args.next().ok_or_else(|| format!("{flag} needs a value"))?,
            _ => return Err(format!("unknown option `{flag}`")),
        };
        match (flag.as_str(), value.as_str()) {
            ("--json", _) => opts.json_dir = Some(value),
            (_, "test") => opts.scale = Scale::Test,
            (_, "eval") => opts.scale = Scale::Eval,
            (_, other) => return Err(format!("unknown --scale `{other}`")),
        }
    }
    Ok(opts)
}

/// Minimum seconds per call of each arm over `samples` rounds of `passes`
/// calls, sampled *interleaved*: every round times all arms back-to-back,
/// so a slow stretch of the machine (frequency drop, a neighbor burning
/// the core) hits all arms alike instead of biasing whichever arm happened
/// to run during it. Sequential per-arm sampling on a single shared core
/// was measured to swing a noop/baseline ratio by ±20%; interleaving
/// bounds it. Odd rounds run the arms in reverse order, so no arm always
/// goes first and pays for a cold cache, allocator or thread pool. With
/// `samples = 1` this is the mean of one `passes`-call run.
pub fn min_of_k_interleaved(samples: usize, passes: usize, arms: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; arms.len()];
    for round in 0..samples {
        for k in 0..arms.len() {
            let i = if round % 2 == 0 { k } else { arms.len() - 1 - k };
            let t0 = Instant::now();
            for _ in 0..passes {
                arms[i]();
            }
            best[i] = best[i].min(t0.elapsed().as_secs_f64() / passes as f64);
        }
    }
    best
}

/// [`min_of_k_interleaved`] for a single arm: the least-interrupted of
/// `samples` runs of `passes` calls is the closest estimate of the true
/// cost on a shared host. Generic rather than `dyn`, so `f` is inlined
/// into the timing loop and no indirect call is timed on microsecond
/// arms.
pub fn min_of_k<F: FnMut()>(samples: usize, passes: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..passes {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / passes as f64);
    }
    best
}

/// A complete evaluation of one workload on one machine.
pub struct EvalRun {
    pub workload: Workload,
    pub machine: MachineModel,
    pub app: ModeledApp,
    pub mp: xflow::MachineProjection,
    pub measured: Measured,
    pub cmp: Comparison,
}

/// Number of ranks every figure/table reports.
pub const TOP_K: usize = 10;

/// Run the full pipeline + simulation for one workload/machine pair.
pub fn eval_run(w: &Workload, machine: &MachineModel, scale: Scale) -> EvalRun {
    let app = ModeledApp::from_workload(w, scale).expect("pipeline");
    let mp = app.project_on(machine);
    let measured = app.measure_on(Some(w), machine).expect("simulate");
    let cmp = compare(&mp, &measured, TOP_K);
    EvalRun { workload: w.clone(), machine: machine.clone(), app, mp, measured, cmp }
}

/// Both evaluation machines in the paper's order.
pub fn machines() -> [MachineModel; 2] {
    [bgq(), xeon()]
}

/// Find a workload by (case-insensitive) name.
pub fn workload(name: &str) -> Workload {
    xflow_workloads::all()
        .into_iter()
        .find(|w| w.name.eq_ignore_ascii_case(name))
        .unwrap_or_else(|| panic!("unknown workload {name}"))
}

/// Render aligned data series over k = 1..=n (the paper's figure format,
/// as text): one column per k, one row per series.
pub fn render_series(title: &str, series: &[(&str, &[f64])]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let n = series.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
    let _ = writeln!(out, "{title}");
    let _ = write!(out, "{:<12}", "k");
    for k in 1..=n {
        let _ = write!(out, "{k:>8}");
    }
    let _ = writeln!(out);
    for (name, vals) in series {
        let _ = write!(out, "{name:<12}");
        for k in 0..n {
            match vals.get(k) {
                Some(v) => {
                    let _ = write!(out, "{:>7.1}%", v * 100.0);
                }
                None => {
                    let _ = write!(out, "{:>8}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// JSON-serializable figure payload.
#[derive(Serialize)]
pub struct FigureData {
    pub experiment: String,
    pub workload: String,
    pub machine: String,
    pub series: HashMap<String, Vec<f64>>,
    pub labels: Vec<String>,
}

/// Write a JSON result file when `--json` was given.
pub fn maybe_write_json(opts: &Opts, name: &str, data: &impl Serialize) {
    if let Some(dir) = &opts.json_dir {
        std::fs::create_dir_all(dir).expect("create json dir");
        let path = format!("{dir}/{name}.json");
        std::fs::write(&path, serde_json::to_string_pretty(data).expect("serialize")).expect("write json");
        println!("[json written to {path}]");
    }
}

/// Unit names of a ranking prefix.
pub fn names_of(run: &EvalRun, ranking: &[StmtId], k: usize) -> Vec<String> {
    ranking.iter().take(k).map(|&u| run.app.units.name(u)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Opts, String> {
        parse_opts(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn opts_parse_scale_and_json() {
        let o = parse(&[]).unwrap();
        assert!(matches!(o.scale, Scale::Eval) && o.json_dir.is_none());
        let o = parse(&["--scale", "test", "--json", "out"]).unwrap();
        assert!(matches!(o.scale, Scale::Test));
        assert_eq!(o.json_dir.as_deref(), Some("out"));
        assert!(matches!(parse(&["--scale", "eval"]).unwrap().scale, Scale::Eval));
    }

    #[test]
    fn opts_reject_typos_and_unknown_flags() {
        assert_eq!(parse(&["--scale", "tset"]).err().unwrap(), "unknown --scale `tset`");
        assert_eq!(parse(&["--jsn", "out"]).err().unwrap(), "unknown option `--jsn`");
        assert_eq!(parse(&["--json"]).err().unwrap(), "--json needs a value");
    }

    #[test]
    fn eval_run_smoke() {
        let w = workload("stassuij");
        let run = eval_run(&w, &bgq(), Scale::Test);
        assert!(run.mp.total > 0.0);
        assert!(run.measured.total() > 0.0);
        assert_eq!(run.cmp.quality.len(), TOP_K);
    }

    #[test]
    fn render_series_formats() {
        let s = render_series("demo", &[("a", &[0.5, 0.75]), ("b", &[1.0])]);
        assert!(s.contains("demo"));
        assert!(s.contains("50.0%"));
        assert!(s.contains("75.0%"));
        assert!(s.contains("100.0%"));
        assert!(s.contains('-'));
    }

    #[test]
    fn interleaved_sampler_alternates_which_arm_goes_first() {
        let order = std::cell::RefCell::new(Vec::new());
        let mut a = || order.borrow_mut().push('a');
        let mut b = || order.borrow_mut().push('b');
        let times = min_of_k_interleaved(4, 2, &mut [&mut a, &mut b]);
        assert_eq!(times.len(), 2);
        assert_eq!(order.into_inner().into_iter().collect::<String>(), "aabbbbaaaabbbbaa");
    }

    #[test]
    fn workload_lookup_case_insensitive() {
        assert_eq!(workload("SORD").name, "SORD");
        assert_eq!(workload("srad").name, "SRAD");
    }
}

/// Shared implementation of the coverage-curve figures (Figures 4–5 and
/// 10–13): cumulative measured coverage of the measured ranking (`Prof`),
/// projected coverage of the projected ranking (`Modl(p)`), measured
/// coverage of the projected ranking (`Modl(m)`), and the quality curve.
pub fn coverage_figure(fig: &str, workload_name: &str, machine: &MachineModel, opts: &Opts) {
    let w = workload(workload_name);
    let run = eval_run(&w, machine, opts.scale);
    println!("=== {fig}: {} hot spot coverage on {} ===\n", w.name, machine.name);
    println!(
        "{}",
        render_series(
            "cumulative runtime coverage of the top-k selection",
            &[
                ("Prof", &run.cmp.prof_curve),
                ("Modl(p)", &run.cmp.modl_p_curve),
                ("Modl(m)", &run.cmp.modl_m_curve),
                ("Q(k)", &run.cmp.quality),
            ],
        )
    );
    println!("top spots (measured): {:?}", names_of(&run, &run.cmp.measured_ranking, 5));
    println!("top spots (modeled) : {:?}", names_of(&run, &run.cmp.projected_ranking, 5));
    let data = FigureData {
        experiment: fig.to_lowercase().replace(' ', "_").replace('.', ""),
        workload: w.name.into(),
        machine: machine.name.clone(),
        series: [
            ("prof".to_string(), run.cmp.prof_curve.clone()),
            ("modl_p".to_string(), run.cmp.modl_p_curve.clone()),
            ("modl_m".to_string(), run.cmp.modl_m_curve.clone()),
            ("quality".to_string(), run.cmp.quality.clone()),
        ]
        .into_iter()
        .collect(),
        labels: names_of(&run, &run.cmp.measured_ranking, TOP_K),
    };
    maybe_write_json(opts, &data.experiment.clone(), &data);
}

/// Shared implementation of the per-hot-spot breakdown figures (Figures
/// 6–7): projected computation / memory / overlap time per top spot.
pub fn breakdown_figure(fig: &str, workload_name: &str, machine: &MachineModel, opts: &Opts) {
    let w = workload(workload_name);
    let run = eval_run(&w, machine, opts.scale);
    println!("=== {fig}: projected time breakdown per {} hot spot on {} ===\n", w.name, machine.name);
    println!("{:<4} {:<26} {:>11} {:>11} {:>11} {:>9}", "#", "hot spot", "Tc (s)", "Tm (s)", "overlap (s)", "bound");
    let mut series: HashMap<String, Vec<f64>> = HashMap::new();
    let mut labels = Vec::new();
    for (i, &unit) in run.cmp.projected_ranking.iter().take(TOP_K).enumerate() {
        let b = match run.mp.unit_breakdown.get(&unit) {
            Some(b) => *b,
            None => continue,
        };
        println!(
            "{:<4} {:<26} {:>11.3e} {:>11.3e} {:>11.3e} {:>9}",
            i + 1,
            run.app.units.name(unit),
            b.tc,
            b.tm,
            b.overlap,
            b.bound()
        );
        series.entry("tc".into()).or_default().push(b.tc);
        series.entry("tm".into()).or_default().push(b.tm);
        series.entry("overlap".into()).or_default().push(b.overlap);
        labels.push(run.app.units.name(unit));
    }
    let mem_share: f64 = {
        let (tm, tot) = run.mp.unit_breakdown.values().fold((0.0, 0.0), |acc, c| (acc.0 + c.tm, acc.1 + c.tc + c.tm));
        tm / tot
    };
    println!("\nmemory share of total projected Tc+Tm: {:.1}%", mem_share * 100.0);
    let data = FigureData {
        experiment: fig.to_lowercase().replace(' ', "_").replace('.', ""),
        workload: w.name.into(),
        machine: machine.name.clone(),
        series,
        labels,
    };
    maybe_write_json(opts, &data.experiment.clone(), &data);
}

#[cfg(test)]
mod figure_tests {
    use super::*;

    #[test]
    fn coverage_figure_runs_at_test_scale() {
        let opts = Opts { scale: Scale::Test, json_dir: None };
        coverage_figure("Smoke", "stassuij", &bgq(), &opts);
    }

    #[test]
    fn breakdown_figure_runs_at_test_scale() {
        let opts = Opts { scale: Scale::Test, json_dir: None };
        breakdown_figure("Smoke", "stassuij", &xeon(), &opts);
    }

    #[test]
    fn json_output_written_when_requested() {
        let dir = std::env::temp_dir().join(format!("xflow-bench-test-{}", std::process::id()));
        let opts = Opts { scale: Scale::Test, json_dir: Some(dir.to_string_lossy().into_owned()) };
        coverage_figure("Smoke JSON", "stassuij", &bgq(), &opts);
        let written = std::fs::read_dir(&dir).unwrap().count();
        assert!(written >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
