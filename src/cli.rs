//! Command-line interface logic for the `xflow` binary.
//!
//! Commands mirror the workflow of the paper: generate the skeleton, build
//! the BET, project hot spots on a target machine, extract the hot path,
//! and (for validation) simulate the measured profile and compare.
//!
//! The entry point [`run`] is pure with respect to stdout — it returns the
//! output text — so every command is unit-testable.

use crate::{bgq, compare, Criteria, InputSpec, MachineModel, ModeledApp, Scale, Session};
use crate::{Axis, CollectingRecorder, DesignSpace, SessionConfig, SweepOptions};
use std::fmt::Write as _;
use std::sync::Arc;
use xflow_hw::MachineRegistry;

/// Top-level usage text.
pub const USAGE: &str = "\
xflow — analytical hot spot projection for software-hardware co-design

USAGE:
    xflow <COMMAND> [OPTIONS]

COMMANDS:
    hotspots <FILE>   project hot spots of a minilang program on a machine
    explain  <FILE>   per-block provenance: ENR, context chain, roofline operands
    hotpath  <FILE>   print the merged hot path with contexts
    miniapp  <FILE>   emit a mini-application skeleton of the hot region
    skeleton <FILE>   print the generated code skeleton (SKOPE-style)
    bet      <FILE>   print BET statistics (nodes, size ratio, warnings)
    simulate <FILE>   run the ground-truth simulator (measured profile)
    profile  <FILE>   rank VM opcodes and opcode pairs by execution count
    compare  <FILE>   side-by-side projected vs measured hot spots
    validate <FILE>   differential check: analytic model vs executed oracle
                      (or `validate --all [--jobs N]`: every built-in
                      workload × machine in parallel)
    oracle [DIR]      materialize an analytic-vs-simulated training corpus
                      over program × machine × scale combos (see ORACLE
                      OPTIONS)
    sweep    <FILE>   project across a machine grid (--axis, work-stealing)
    serve             run the HTTP projection service (see SERVE OPTIONS)
    machines          list the known machine models
    cache <stats|clear>  inspect or empty a --cache-dir artifact store

FILE may also name a built-in workload (sord, chargei, srad, cfd, stassuij).

OPTIONS:
    --machine <NAME>               target machine          [default: bgq]
                                   built-ins bgq, xeon, knl, generic plus
                                   any machine file in the machines dir
    --machines-dir <DIR>           directory of declarative machine JSON
                                   files, registered by file stem
                                   [default: ./machines when present]
    --machine-file <FILE.json>     load a custom machine model from JSON
    --input NAME=VALUE             set a program input (repeatable)
    --coverage <0..1>              time-coverage criterion [default: 0.9]
    --leanness <0..1>              code-leanness criterion [default: 0.25]
    --top <N>                      rows to print           [default: 10]
    --scale <test|eval>            workload input preset   [default: test]
    --seed <N>                     RNG seed for validate's oracle runs
    --json                         machine-readable output (explain, validate,
                                   profile)
    --trace-out <FILE>             write a Chrome trace of the run to FILE
    --flight-out <FILE>            write the always-on flight-ring snapshot
                                   (last ~1k telemetry events) to FILE
    --cache-dir <DIR>              persist/reuse stage artifacts in DIR
    --no-cache                     model cold, bypassing every cache

SERVE OPTIONS (plus --cache-dir and --machines-dir above):
    --addr <HOST:PORT>             bind address [default: 127.0.0.1:7070]
    --threads <N>                  worker threads [default: 4]

ORACLE OPTIONS (programs default to the built-in workloads; DIR runs every
.ml/.xf file in DIR instead; combos fan out over a work-stealing pool and
each simulation is cached as a content-addressed `sim` stage when
--cache-dir is given):
    --gen <N>                      drive N generated programs instead of
                                   the built-in workloads
    --machines <A,B,...>           machines to simulate [default: bgq,xeon]
    --scales <test,eval>           scale presets for built-in workloads
                                   [default: test]
    --jobs <N>                     worker threads [default: 0 = auto]
                                   (also honored by `validate --all`)
    --out <FILE>                   write the corpus JSON to FILE instead of
                                   stdout

SWEEP OPTIONS (the grid is the cartesian product of the axes, applied to
the --machine base; the last axis varies fastest):
    --axis NAME=V1,V2,...          swept machine parameter (repeatable);
                                   names: dram_bw_gbs, cores, mlp, freq_ghz,
                                   vector_lanes, issue_width, l1_hit_rate,
                                   llc_hit_rate, vector_efficiency,
                                   load_store_per_cycle
    --threads <N>                  sweep worker threads  [default: 0 = auto]
    --chunk <N>                    work-stealing chunk size [default: 0 = auto]
";

/// A parsed invocation.
struct Invocation {
    command: String,
    file: Option<String>,
    machine: MachineModel,
    inputs: InputSpec,
    criteria: Criteria,
    top: usize,
    cache_dir: Option<String>,
    no_cache: bool,
    json: bool,
    scale: Scale,
    seed: Option<u64>,
    axes: Vec<Axis>,
    sweep_opts: SweepOptions<'static>,
    /// `serve`: bind address.
    addr: Option<String>,
    /// Machines directory as given (the registry pre-scan also reads it).
    machines_dir: Option<String>,
    /// `validate`: check every built-in workload × machine combo.
    all: bool,
    /// `oracle` / `validate --all`: worker threads (0 = auto).
    jobs: usize,
    /// `oracle`: machine names to simulate (resolved via the registry).
    oracle_machines: Vec<String>,
    /// `oracle`: scale presets for built-in workloads.
    oracle_scales: Vec<Scale>,
    /// `oracle`: drive N generated programs instead of the workloads.
    gen: Option<usize>,
    /// `oracle`: corpus output path.
    out: Option<String>,
    trace_out: Option<String>,
    /// Created when `--trace-out` is given; threaded through the session
    /// and every observed evaluation so one trace covers the whole run.
    recorder: Option<Arc<CollectingRecorder>>,
    flight_out: Option<String>,
    /// Created when `--flight-out` is given; wraps the collecting
    /// recorder (if any) so the ring sees exactly the traced events.
    flight: Option<Arc<xflow_obs::FlightRecorder>>,
}

impl Invocation {
    /// The recorder to thread through sessions and observed evaluations:
    /// the flight ring when `--flight-out` is given (it forwards to the
    /// `--trace-out` collector when both are present), else the collector.
    fn session_recorder(&self) -> Option<Arc<dyn xflow_obs::Recorder>> {
        match (&self.flight, &self.recorder) {
            (Some(f), _) => Some(f.clone() as Arc<dyn xflow_obs::Recorder>),
            (None, Some(r)) => Some(r.clone() as Arc<dyn xflow_obs::Recorder>),
            (None, None) => None,
        }
    }
}

/// Build the machine registry an invocation resolves `--machine` against:
/// the built-in presets, plus every machine file in `--machines-dir` (the
/// flag is pre-scanned here because it can appear after `--machine`). With
/// no explicit flag, a `machines/` directory in the working directory is
/// loaded when present; load errors are hard either way — a typo in a
/// machine description should fail the invocation, not silently fall back
/// to a preset.
pub fn machine_registry(args: &[String]) -> Result<MachineRegistry, String> {
    let mut reg = MachineRegistry::builtin();
    let explicit = args.windows(2).find(|w| w[0] == "--machines-dir").map(|w| w[1].clone());
    let dir = explicit.unwrap_or_else(|| "machines".to_string());
    reg.load_dir(std::path::Path::new(&dir))?;
    Ok(reg)
}

fn parse_args(args: &[String], registry: &MachineRegistry) -> Result<Invocation, String> {
    let mut it = args.iter();
    let command = it.next().cloned().ok_or_else(|| USAGE.to_string())?;
    let mut inv = Invocation {
        command,
        file: None,
        machine: bgq(),
        inputs: InputSpec::new(),
        criteria: Criteria { time_coverage: 0.9, code_leanness: 0.25 },
        top: 10,
        cache_dir: None,
        no_cache: false,
        json: false,
        scale: Scale::Test,
        seed: None,
        axes: Vec::new(),
        sweep_opts: SweepOptions::default(),
        addr: None,
        machines_dir: None,
        all: false,
        jobs: 0,
        oracle_machines: Vec::new(),
        oracle_scales: Vec::new(),
        gen: None,
        out: None,
        trace_out: None,
        recorder: None,
        flight_out: None,
        flight: None,
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--machine" => {
                let v = it.next().ok_or("--machine needs a value")?;
                inv.machine = registry
                    .get(v)
                    .cloned()
                    .ok_or_else(|| format!("unknown machine `{v}` (known: {})", registry.names().join(", ")))?;
            }
            "--machines-dir" => {
                // the registry pre-scan already loaded it; keep the value
                // for commands that build their own registry (serve)
                let v = it.next().ok_or("--machines-dir needs a directory")?;
                inv.machines_dir = Some(v.clone());
            }
            "--addr" => {
                let v = it.next().ok_or("--addr needs HOST:PORT")?;
                inv.addr = Some(v.clone());
            }
            "--machine-file" => {
                let v = it.next().ok_or("--machine-file needs a path")?;
                let text = std::fs::read_to_string(v).map_err(|e| format!("cannot read {v}: {e}"))?;
                let m: MachineModel =
                    serde_json::from_str(&text).map_err(|e| format!("bad machine JSON in {v}: {e}"))?;
                let errs = m.validate();
                if !errs.is_empty() {
                    return Err(format!("invalid machine model in {v}: {errs:?}"));
                }
                inv.machine = m;
            }
            "--input" => {
                let v = it.next().ok_or("--input needs NAME=VALUE")?;
                let (k, val) = v.split_once('=').ok_or_else(|| format!("bad --input `{v}`, expected NAME=VALUE"))?;
                let val: f64 = val.parse().map_err(|_| format!("bad value in --input `{v}`"))?;
                inv.inputs.set(k, val);
            }
            "--coverage" => {
                let v = it.next().ok_or("--coverage needs a value")?;
                inv.criteria.time_coverage = v.parse().map_err(|_| format!("bad --coverage `{v}`"))?;
            }
            "--leanness" => {
                let v = it.next().ok_or("--leanness needs a value")?;
                inv.criteria.code_leanness = v.parse().map_err(|_| format!("bad --leanness `{v}`"))?;
            }
            "--top" => {
                let v = it.next().ok_or("--top needs a value")?;
                inv.top = v.parse().map_err(|_| format!("bad --top `{v}`"))?;
            }
            "--cache-dir" => {
                let v = it.next().ok_or("--cache-dir needs a directory")?;
                inv.cache_dir = Some(v.clone());
            }
            "--no-cache" => inv.no_cache = true,
            "--json" => inv.json = true,
            "--all" => inv.all = true,
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                inv.jobs = v.parse().map_err(|_| format!("bad --jobs `{v}`"))?;
            }
            "--machines" => {
                let v = it.next().ok_or("--machines needs A,B,...")?;
                inv.oracle_machines = v.split(',').map(|s| s.trim().to_string()).filter(|s| !s.is_empty()).collect();
                if inv.oracle_machines.is_empty() {
                    return Err(format!("bad --machines `{v}`, expected A,B,..."));
                }
            }
            "--scales" => {
                let v = it.next().ok_or("--scales needs test | eval (comma-separated)")?;
                inv.oracle_scales = v
                    .split(',')
                    .map(|s| match s.trim().to_lowercase().as_str() {
                        "test" => Ok(Scale::Test),
                        "eval" => Ok(Scale::Eval),
                        other => Err(format!("unknown scale `{other}` (test, eval)")),
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--gen" => {
                let v = it.next().ok_or("--gen needs a count")?;
                inv.gen = Some(v.parse().map_err(|_| format!("bad --gen `{v}`"))?);
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a path")?;
                inv.out = Some(v.clone());
            }
            "--scale" => {
                let v = it.next().ok_or("--scale needs test | eval")?;
                inv.scale = match v.to_lowercase().as_str() {
                    "test" => Scale::Test,
                    "eval" => Scale::Eval,
                    other => return Err(format!("unknown scale `{other}` (test, eval)")),
                };
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => v.parse(),
                };
                inv.seed = Some(parsed.map_err(|_| format!("bad --seed `{v}`"))?);
            }
            "--axis" => {
                let v = it.next().ok_or("--axis needs NAME=V1,V2,...")?;
                inv.axes.push(parse_axis(v)?);
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                inv.sweep_opts.threads = v.parse().map_err(|_| format!("bad --threads `{v}`"))?;
            }
            "--chunk" => {
                let v = it.next().ok_or("--chunk needs a value")?;
                inv.sweep_opts.chunk = v.parse().map_err(|_| format!("bad --chunk `{v}`"))?;
            }
            "--trace-out" => {
                let v = it.next().ok_or("--trace-out needs a path")?;
                inv.trace_out = Some(v.clone());
                inv.recorder = Some(Arc::new(CollectingRecorder::new()));
            }
            "--flight-out" => {
                let v = it.next().ok_or("--flight-out needs a path")?;
                inv.flight_out = Some(v.clone());
            }
            other if inv.file.is_none() && !other.starts_with("--") => inv.file = Some(other.to_string()),
            other => return Err(format!("unknown option `{other}`\n\n{USAGE}")),
        }
    }
    // built after the loop so the ring wraps the collector regardless of
    // the order --flight-out and --trace-out appeared in
    if inv.flight_out.is_some() {
        inv.flight = Some(Arc::new(match &inv.recorder {
            Some(rec) => xflow_obs::FlightRecorder::wrapping(rec.clone() as Arc<dyn xflow_obs::Recorder>),
            None => xflow_obs::FlightRecorder::new(),
        }));
    }
    Ok(inv)
}

/// Parse one `--axis NAME=V1,V2,...` value into an [`Axis`] over a named
/// machine parameter.
fn parse_axis(spec: &str) -> Result<Axis, String> {
    let (name, values) = spec.split_once('=').ok_or_else(|| format!("bad --axis `{spec}`, expected NAME=V1,V2,..."))?;
    let parsed: Result<Vec<f64>, _> = values.split(',').map(|v| v.trim().parse::<f64>()).collect();
    let parsed = parsed.map_err(|_| format!("bad value in --axis `{spec}`"))?;
    Axis::by_name(name, &parsed).map_err(|e| format!("{e} (see `xflow help`)"))
}

/// Execute a CLI invocation, returning the text to print.
pub fn run(args: &[String]) -> Result<String, String> {
    let registry = machine_registry(args)?;
    let mut inv = parse_args(args, &registry)?;
    if inv.command == "machines" {
        return Ok(machines_text(&registry));
    }
    if inv.command == "help" || inv.command == "--help" {
        return Ok(USAGE.to_string());
    }
    if inv.command == "cache" {
        return run_cache(&inv);
    }
    if inv.command == "serve" {
        return run_serve(&inv);
    }
    if inv.command == "validate" && inv.all {
        return run_validate_all(&inv, &registry);
    }
    if inv.command == "oracle" {
        return run_oracle(&inv, &registry);
    }
    let file = inv.file.clone().ok_or_else(|| format!("`{}` needs a FILE argument\n\n{USAGE}", inv.command))?;
    let (src, workload) = resolve_source(&mut inv, &file)?;
    if inv.command == "validate" {
        return run_validate(&inv, &src, workload.as_ref());
    }
    let mut session = None;
    let out = run_on_source(&inv, &src, &mut session)?;
    if let Some(path) = &inv.trace_out {
        let rec = inv.recorder.as_ref().expect("--trace-out allocates a recorder");
        let mut snap = rec.snapshot();
        if let Some(s) = &session {
            snap.merge_registry(s.registry());
        }
        std::fs::write(path, snap.to_chrome_json()).map_err(|e| format!("cannot write trace to {path}: {e}"))?;
    }
    if let Some(path) = &inv.flight_out {
        let flight = inv.flight.as_ref().expect("--flight-out allocates a flight recorder");
        std::fs::write(path, flight.snapshot().to_chrome_json())
            .map_err(|e| format!("cannot write flight dump to {path}: {e}"))?;
    }
    Ok(out)
}

/// Resolve the FILE argument: a readable path wins; otherwise the name of
/// a built-in workload (whose scale-preset inputs seed the binding, with
/// `--input` overrides applied on top), returned beside its source.
fn resolve_source(inv: &mut Invocation, file: &str) -> Result<(String, Option<crate::Workload>), String> {
    match std::fs::read_to_string(file) {
        Ok(src) => Ok((src, None)),
        Err(e) => {
            let want = file.to_lowercase();
            match xflow_workloads::all().into_iter().find(|w| w.name.to_lowercase() == want) {
                Some(w) => {
                    let mut inputs = w.inputs(inv.scale);
                    for (k, v) in inv.inputs.iter() {
                        inputs.set(k, v);
                    }
                    inv.inputs = inputs;
                    Ok((w.source.to_string(), Some(w)))
                }
                None => Err(format!("cannot read {file}: {e}")),
            }
        }
    }
}

/// `validate`'s checks: the default tolerances, under `--seed` if given.
fn validation_config(inv: &Invocation) -> xflow_validate::ValidationConfig {
    let mut cfg = xflow_validate::ValidationConfig::default();
    if let Some(s) = inv.seed {
        cfg.seed = s;
    }
    cfg
}

/// The `validate` subcommand: check the model a memory-only session
/// serves for the resolved FILE against the interpreter/VM and the cycle
/// simulator ([`Session::validate`]). Returns `Err` (→ exit code 1) when
/// any check fails so CI can gate on it; the payload is still the full
/// report.
fn run_validate(inv: &Invocation, src: &str, workload: Option<&crate::Workload>) -> Result<String, String> {
    let report = Session::new()
        .validate(src, &inv.inputs, workload, &inv.machine, &validation_config(inv))
        .map_err(|e| e.to_string())?;
    let out = if inv.json {
        let mut j = xflow_validate::to_json(&report);
        j.push('\n');
        j
    } else {
        report.render()
    };
    if report.passed {
        Ok(out)
    } else {
        Err(out)
    }
}

/// `validate --all`: every built-in workload × target machine, fanned over
/// the shared work-stealing pool on one session, so each workload is
/// modeled once for all machines. One failed combo fails the whole run
/// (→ exit code 1) with every report still rendered.
fn run_validate_all(inv: &Invocation, registry: &MachineRegistry) -> Result<String, String> {
    let cfg = validation_config(inv);
    let machines = resolve_machines(inv, registry)?;
    let workloads = xflow_workloads::all();
    // workers claim combos machine-major, so two workers start on two
    // workloads instead of one waiting for the other's model build; the
    // reports still print workload-major
    let mut combos: Vec<(&crate::Workload, &MachineModel)> = Vec::new();
    for m in &machines {
        for w in &workloads {
            combos.push((w, m));
        }
    }
    let session = Session::new();
    let results = crate::run_chunked(
        &combos,
        inv.jobs,
        || (),
        |_, _, &(w, m)| session.validate(w.source, &w.inputs(inv.scale), Some(w), m, &cfg).map_err(|e| e.to_string()),
    );
    let mut reports: Vec<_> = combos.iter().zip(results).collect();
    reports.sort_by_key(|((w, _), _)| workloads.iter().position(|x| x.name == w.name));
    let mut out = String::new();
    let mut passed = 0usize;
    let mut failed = Vec::new();
    let mut json_reports = Vec::new();
    for ((w, m), r) in reports {
        let report = r.map_err(|e| format!("validate {} on {}: {e}", w.name, m.name))?;
        if report.passed {
            passed += 1;
        } else {
            failed.push(format!("{} on {}", w.name, m.name));
        }
        if inv.json {
            json_reports.push(xflow_validate::to_json(&report));
        } else {
            out.push_str(&report.render());
        }
    }
    if inv.json {
        out = format!("[{}]\n", json_reports.join(","));
    } else {
        let _ = writeln!(
            out,
            "validated {} combos ({} workloads × {} machines): {passed} passed",
            combos.len(),
            workloads.len(),
            machines.len()
        );
    }
    if failed.is_empty() {
        Ok(out)
    } else {
        Err(format!("{out}\nFAILED: {}", failed.join(", ")))
    }
}

/// Resolve `--machines A,B,...` through the registry; defaults to the
/// paper's BG/Q + Xeon pair.
fn resolve_machines(inv: &Invocation, registry: &MachineRegistry) -> Result<Vec<MachineModel>, String> {
    if inv.oracle_machines.is_empty() {
        return Ok(vec![crate::bgq(), crate::xeon()]);
    }
    inv.oracle_machines
        .iter()
        .map(|name| {
            registry
                .get(name)
                .cloned()
                .ok_or_else(|| format!("unknown machine `{name}` (known: {})", registry.names().join(", ")))
        })
        .collect()
}

/// The `oracle` subcommand: materialize the analytic-vs-simulated training
/// corpus (see [`crate::oracle`]). Programs come from `--gen N`, a DIR of
/// `.ml`/`.xf` files, or default to the built-in workloads; simulations are
/// cached per combo when `--cache-dir` is given.
fn run_oracle(inv: &Invocation, registry: &MachineRegistry) -> Result<String, String> {
    let scales = if inv.oracle_scales.is_empty() { vec![Scale::Test] } else { inv.oracle_scales.clone() };
    let programs = match (&inv.gen, &inv.file) {
        (Some(n), _) => crate::oracle::generated_programs(*n),
        (None, Some(dir)) => crate::oracle::dir_programs(std::path::Path::new(dir))?,
        (None, None) => crate::oracle::builtin_programs(&scales),
    };
    let machines = resolve_machines(inv, registry)?;
    // the machine name is part of every record key
    for (i, m) in machines.iter().enumerate() {
        if machines[..i].iter().any(|o| o.name == m.name) {
            return Err(format!("machine `{}` is listed twice; corpus machines must be unique", m.name));
        }
    }
    let session = match &inv.cache_dir {
        Some(dir) => Session::with_cache_dir(dir),
        None => Session::new(),
    };
    let opts =
        crate::oracle::OracleOptions { jobs: inv.jobs, seed: inv.seed.unwrap_or(crate::xflow_minilang::DEFAULT_SEED) };
    let corpus = crate::oracle::build_corpus(&session, &programs, &machines, &opts).map_err(|e| e.to_string())?;
    // cache traffic goes to stderr so stdout (and --out files) stay
    // byte-identical between cold and warm runs
    if let Some(dir) = &inv.cache_dir {
        eprintln!("[xflow cache] {} ({dir})", session.stats());
    }
    let json = corpus.to_json();
    match &inv.out {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("cannot write corpus to {path}: {e}"))?;
            Ok(format!(
                "oracle corpus: {} records from {} combos ({} programs × {} machines) -> {path}\n",
                corpus.records.len(),
                corpus.combos,
                corpus.programs,
                corpus.machines
            ))
        }
        None if inv.json => Ok(json),
        None => Ok(format!(
            "oracle corpus: {} records from {} combos ({} programs × {} machines); use --out FILE or --json for the data\n",
            corpus.records.len(),
            corpus.combos,
            corpus.programs,
            corpus.machines
        )),
    }
}

/// The `serve` subcommand: run the HTTP projection service until the
/// process is killed. The listening line goes to stderr so stdout stays
/// reserved for command output.
fn run_serve(inv: &Invocation) -> Result<String, String> {
    let threads = if inv.sweep_opts.threads == 0 { 4 } else { inv.sweep_opts.threads };
    let config = crate::serve::ServeConfig {
        addr: inv.addr.clone().unwrap_or_else(|| "127.0.0.1:7070".to_string()),
        threads,
        store: crate::StoreConfig { cache_dir: inv.cache_dir.clone().map(Into::into), ..Default::default() },
        machines_dir: inv.machines_dir.clone(),
        recorder: inv.recorder.clone().map(|r| r as Arc<dyn xflow_obs::Recorder>),
    };
    let server = crate::serve::Server::bind(config)?;
    eprintln!("[xflow serve] listening on http://{} ({threads} threads)", server.addr());
    server.run()?;
    Ok(String::new())
}

/// The `cache stats` / `cache clear` subcommand (operates on a
/// `--cache-dir` artifact store without modeling anything).
fn run_cache(inv: &Invocation) -> Result<String, String> {
    let action = inv.file.as_deref().ok_or("`cache` needs an action: stats | clear")?;
    let dir = inv.cache_dir.as_deref().ok_or("`cache` needs --cache-dir <DIR>")?;
    let path = std::path::Path::new(dir);
    match action {
        "stats" => {
            let r = crate::session::disk_cache_report(path);
            let mut out = String::new();
            let _ = writeln!(out, "cache dir: {dir}");
            let _ = writeln!(out, "entries: {}   bytes: {}", r.entries, r.bytes);
            for (name, n) in crate::session::DiskCacheReport::STAGES.iter().zip(r.per_stage) {
                let _ = writeln!(out, "  {name:<10} {n}");
            }
            // when a shared store is live in this process (e.g. an
            // embedded `serve` instance), report its counters too — on
            // stderr, like all cache traffic, so stdout stays stable
            if let Some(store) = crate::store::process_store() {
                eprint!("{}", live_store_report(&store.stats()));
            }
            Ok(out)
        }
        "clear" => {
            let n = crate::session::clear_cache_dir(path).map_err(|e| e.to_string())?;
            Ok(format!("removed {n} artifact(s) from {dir}\n"))
        }
        other => Err(format!("unknown cache action `{other}` (stats | clear)")),
    }
}

/// The live-store section of `cache stats`: totals with overall hit
/// ratio, then one line per stage with its single-flight wait count.
/// Printed to stderr so scripted stdout greps stay stable.
fn live_store_report(stats: &crate::store::CacheStats) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "[xflow cache] live store: {stats}, hit ratio: {:.1}%, single-flight waits: {}",
        stats.hit_ratio() * 100.0,
        stats.singleflight_waits()
    );
    for (name, s) in stats.per_stage() {
        let _ = writeln!(
            out,
            "[xflow cache]   {name:<10} hits {:>4}  disk {:>4}  misses {:>4}  waits {:>4}",
            s.hits, s.disk_hits, s.misses, s.singleflight_waits
        );
    }
    out
}

/// Render the `profile` command report: opcodes and opcode digrams
/// ranked by execution count (ties broken by name), deterministic for a
/// given program + inputs + seed. Shares are fractions of the executed
/// instruction stream (digram shares use the `total - 1` pair count).
fn profile_report(iprof: &crate::xflow_minilang::InstrProfile, inv: &Invocation) -> String {
    let total = iprof.total();
    let ops: Vec<(&str, u64)> = iprof.ranked_ops().into_iter().filter(|(_, c)| *c > 0).collect();
    let pairs: Vec<((&str, &str), u64)> = iprof.ranked_pairs().into_iter().filter(|(_, c)| *c > 0).collect();
    let op_share = |c: u64| c as f64 / total.max(1) as f64;
    let pair_share = |c: u64| c as f64 / total.saturating_sub(1).max(1) as f64;
    if inv.json {
        #[derive(serde::Serialize)]
        struct Row {
            name: String,
            count: u64,
            share: f64,
        }
        #[derive(serde::Serialize)]
        struct Report {
            instructions: u64,
            distinct_opcodes: u64,
            ops: Vec<Row>,
            pairs: Vec<Row>,
        }
        let report = Report {
            instructions: total,
            distinct_opcodes: ops.len() as u64,
            ops: ops
                .iter()
                .take(inv.top)
                .map(|(n, c)| Row { name: (*n).to_string(), count: *c, share: op_share(*c) })
                .collect(),
            pairs: pairs
                .iter()
                .take(inv.top)
                .map(|((a, b), c)| Row { name: format!("{a}->{b}"), count: *c, share: pair_share(*c) })
                .collect(),
        };
        let mut out = xflow_validate::jsonfmt::to_json(&report);
        out.push('\n');
        return out;
    }
    let mut out = String::new();
    let _ = writeln!(out, "VM instruction profile: {total} instructions, {} distinct opcodes", ops.len());
    let _ = writeln!(out, "\n{:<4} {:<28} {:>12} {:>8}", "#", "opcode", "count", "share");
    for (i, (n, c)) in ops.iter().take(inv.top).enumerate() {
        let _ = writeln!(out, "{:<4} {:<28} {:>12} {:>7.2}%", i + 1, n, c, op_share(*c) * 100.0);
    }
    let _ = writeln!(out, "\n{:<4} {:<28} {:>12} {:>8}", "#", "opcode pair", "count", "share");
    for (i, ((a, b), c)) in pairs.iter().take(inv.top).enumerate() {
        let _ = writeln!(out, "{:<4} {:<28} {:>12} {:>7.2}%", i + 1, format!("{a} -> {b}"), c, pair_share(*c) * 100.0);
    }
    out
}

/// Model the source honoring the cache flags: `--no-cache` forces a cold
/// build through a fresh memory-only session, `--cache-dir` warm-starts
/// from (and persists to) disk, and the default path shares the
/// process-wide in-memory session. Cache traffic is reported on stderr so
/// stdout stays byte-identical between warm and cold runs.
fn modeled(inv: &Invocation, src: &str, session_out: &mut Option<Session>) -> Result<ModeledApp, String> {
    let recorder = inv.session_recorder();
    if inv.no_cache || recorder.is_some() {
        // a fresh memory-only session is cold by construction; a traced
        // run gets its own session so the stage spans land in the
        // recorder, and the session outlives the command so `run` can fold
        // its cache counters into the exported trace
        let cache_dir = if inv.no_cache { None } else { inv.cache_dir.as_ref() };
        let config = SessionConfig { cache_dir: cache_dir.map(Into::into), recorder, ..SessionConfig::default() };
        let session = Session::with_config(config);
        let app = session.model(src, &inv.inputs).map_err(|e| e.to_string())?;
        if let Some(dir) = cache_dir {
            eprintln!("[xflow cache] {} ({dir})", session.stats());
        }
        *session_out = Some(session);
        return Ok(app);
    }
    match &inv.cache_dir {
        Some(dir) => {
            let session = Session::with_cache_dir(dir);
            let app = session.model(src, &inv.inputs).map_err(|e| e.to_string())?;
            eprintln!("[xflow cache] {} ({dir})", session.stats());
            Ok(app)
        }
        None => ModeledApp::from_source(src, &inv.inputs).map_err(|e| e.to_string()),
    }
}

fn run_on_source(inv: &Invocation, src: &str, session_out: &mut Option<Session>) -> Result<String, String> {
    match inv.command.as_str() {
        "skeleton" => {
            let app = modeled(inv, src, session_out)?;
            let t = &app.translation;
            let mut out = crate::xflow_skeleton::print(&t.skeleton);
            if !t.warnings.is_empty() {
                out.push_str("\n# translation notes:\n");
                for w in &t.warnings {
                    let _ = writeln!(out, "#   {w}");
                }
            }
            Ok(out)
        }
        "bet" => {
            let app = modeled(inv, src, session_out)?;
            let mut out = String::new();
            let _ = writeln!(out, "skeleton statements : {}", app.translation.skeleton.source_statement_count());
            let _ = writeln!(out, "BET nodes           : {}", app.bet.len());
            let _ = writeln!(out, "size ratio          : {:.2}", app.bet_size_ratio());
            let enr = app.bet.enr();
            let max = enr.iter().cloned().fold(0.0f64, f64::max);
            let _ = writeln!(out, "max ENR             : {max:.3e}");
            for w in &app.bet.warnings {
                let _ = writeln!(out, "warning: {w}");
            }
            Ok(out)
        }
        "hotspots" => {
            let app = modeled(inv, src, session_out)?;
            let mp = app.project_on(&inv.machine);
            let sel = mp.select(&app.units, inv.criteria);
            let mut out = String::new();
            let _ = writeln!(out, "machine: {}   projected total: {:.3e} s", inv.machine.name, mp.total);
            let _ = writeln!(
                out,
                "selection: {} spots, coverage {:.1}%, leanness {:.1}%\n",
                sel.spots.len(),
                sel.coverage() * 100.0,
                sel.leanness() * 100.0
            );
            let _ = writeln!(out, "{:<4} {:<28} {:>12} {:>8} {:>10}", "#", "block", "time (s)", "cov %", "bound");
            for s in sel.spots.iter().take(inv.top) {
                let bound = mp.unit_breakdown.get(&s.stmt).map_or("-", |b| b.bound());
                let _ = writeln!(
                    out,
                    "{:<4} {:<28} {:>12.3e} {:>7.2}% {:>10}",
                    s.rank + 1,
                    app.units.name(s.stmt),
                    s.time,
                    s.coverage * 100.0,
                    bound
                );
            }
            Ok(out)
        }
        "explain" => {
            let app = modeled(inv, src, session_out)?;
            let report = match &inv.recorder {
                Some(rec) => crate::explain::explain_observed(&app, &inv.machine, rec),
                None => crate::explain::explain(&app, &inv.machine),
            };
            if inv.json {
                let mut out = report.to_json();
                out.push('\n');
                Ok(out)
            } else {
                Ok(report.render(inv.top))
            }
        }
        "hotpath" => {
            let app = modeled(inv, src, session_out)?;
            let mp = app.project_on(&inv.machine);
            let sel = mp.select(&app.units, inv.criteria);
            Ok(crate::hot_path_report(&app, &sel))
        }
        "miniapp" => {
            let app = modeled(inv, src, session_out)?;
            let mp = app.project_on(&inv.machine);
            let sel = mp.select(&app.units, inv.criteria);
            let mini = crate::build_miniapp(&app, &sel);
            let mut out = format!(
                "# mini-application extracted from the hot path ({} spots, {:.1}% coverage on {})
",
                sel.spots.len(),
                sel.coverage() * 100.0,
                inv.machine.name
            );
            out.push_str(&crate::xflow_skeleton::print(&mini));
            Ok(out)
        }
        "simulate" => {
            let app = modeled(inv, src, session_out)?;
            let measured = app.measure_on(None, &inv.machine).map_err(|e| e.to_string())?;
            let mut out = String::new();
            let _ = writeln!(
                out,
                "machine: {}   measured total: {:.3e} s ({:.3e} cycles)",
                inv.machine.name,
                measured.total(),
                measured.report.total_cycles
            );
            let _ = writeln!(
                out,
                "L1 hit rate: {:.1}%   LLC hit rate: {:.1}%   DRAM bytes: {}\n",
                measured.report.l1_hit_rate * 100.0,
                measured.report.llc_hit_rate * 100.0,
                measured.report.dram_bytes
            );
            let _ = writeln!(out, "{:<4} {:<28} {:>12} {:>8} {:>8}", "#", "block", "time (s)", "cov %", "IPC");
            let total = measured.total().max(1e-300);
            for (i, &unit) in measured.ranking().iter().take(inv.top).enumerate() {
                let t = measured.oracle.times[&unit];
                let _ = writeln!(
                    out,
                    "{:<4} {:<28} {:>12.3e} {:>7.2}% {:>8.2}",
                    i + 1,
                    app.units.name(unit),
                    t,
                    t / total * 100.0,
                    measured.issue_rate(unit)
                );
            }
            Ok(out)
        }
        "profile" => {
            let prog = crate::xflow_minilang::parse(src).map_err(|e| e.to_string())?;
            let vm = crate::xflow_minilang::compile(&prog).map_err(|e| e.to_string())?;
            // fused superinstructions account to their constituent
            // opcodes, so the report is the unfused stream's
            let (_, _, _, iprof) = vm
                .run_profiled(
                    &inv.inputs,
                    crate::xflow_minilang::NullTracer,
                    crate::xflow_minilang::Limits::default(),
                    inv.seed.unwrap_or(crate::xflow_minilang::DEFAULT_SEED),
                )
                .map_err(|e| e.to_string())?;
            if let Some(rec) = inv.session_recorder() {
                iprof.flush_to(rec.as_ref());
            }
            Ok(profile_report(&iprof, inv))
        }
        "sweep" => {
            if inv.axes.is_empty() {
                return Err("`sweep` needs at least one --axis NAME=V1,V2,...".into());
            }
            let space = DesignSpace::grid(inv.machine.clone(), inv.axes.clone());
            space.check_machines()?;
            let app = modeled(inv, src, session_out)?;
            let sweep = match &inv.recorder {
                Some(rec) => space.sweep_opts(&app, SweepOptions { recorder: rec.as_ref(), ..inv.sweep_opts }),
                None => space.sweep_opts(&app, inv.sweep_opts),
            };
            let mut out = format!("base machine: {}   points: {}\n\n", inv.machine.name, space.len());
            // a --top below the point count ranks straight off the totals
            // column (best first, no hydration); otherwise point order
            let table = if inv.top < space.len() {
                crate::format_sweep_ranked(&sweep, &app.units, inv.top)
            } else {
                crate::format_sweep(&sweep, &app.units)
            };
            out.push_str(&table);
            if let Some(best) = sweep.best() {
                let _ = writeln!(out, "\nbest: #{} {}   total {:.4e} s", best.index, best.machine, best.total);
            }
            Ok(out)
        }
        "compare" => {
            let app = modeled(inv, src, session_out)?;
            let mp = app.project_on(&inv.machine);
            let measured = app.measure_on(None, &inv.machine).map_err(|e| e.to_string())?;
            let cmp = compare(&mp, &measured, inv.top);
            let mut out = cmp.format_table(&app.units, inv.top);
            let _ = writeln!(
                out,
                "\ntop-{} overlap: {}/{}   Q({}) = {:.1}%",
                inv.top,
                cmp.top_k_overlap(inv.top),
                inv.top,
                inv.top.min(5),
                cmp.quality_at(inv.top.min(5)) * 100.0
            );
            Ok(out)
        }
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    }
}

fn machines_text(registry: &MachineRegistry) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<12} {:>6} {:>6} {:>7} {:>7} {:>9} {:>9} {:>9} {:>7}",
        "key", "name", "GHz", "cores", "issue", "lanes", "L1 KB", "LLC MB", "GB/s", "veff"
    );
    for (key, m) in registry.iter() {
        let _ = writeln!(
            out,
            "{:<12} {:<12} {:>6.1} {:>6} {:>7} {:>7} {:>9} {:>9.1} {:>9.2} {:>7.2}",
            key,
            m.name,
            m.freq_ghz,
            m.cores,
            m.issue_width,
            m.vector_lanes,
            m.l1.size_bytes / 1024,
            m.llc.size_bytes as f64 / (1024.0 * 1024.0),
            m.dram_bw_gbs,
            m.vector_efficiency
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    const DEMO: &str = r#"
fn main() {
    let n = input("N", 512);
    let a = zeros(n);
    @fill: for i in 0 .. n { a[i] = rnd(); }
    @sum: for i in 0 .. n { a[0] = a[0] + a[i] * a[i]; }
    print(a[0]);
}
"#;

    fn with_demo_file(f: impl FnOnce(&str)) {
        // one directory per call: tests run in parallel and each removes
        // its directory when done
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("xflow-cli-test-{}-{call}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo.ml");
        std::fs::write(&path, DEMO).unwrap();
        f(path.to_str().unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn machines_listing() {
        let out = run(&args(&["machines"])).unwrap();
        assert!(out.contains("BG/Q"));
        assert!(out.contains("Xeon"));
        assert!(out.contains("generic"));
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&args(&["help"])).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors() {
        let err = run(&args(&["frobnicate", "x.ml"])).unwrap_err();
        assert!(err.contains("unknown command") || err.contains("cannot read"));
    }

    #[test]
    fn missing_file_errors() {
        let err = run(&args(&["hotspots"])).unwrap_err();
        assert!(err.contains("needs a FILE"));
    }

    #[test]
    fn unreadable_file_errors() {
        let err = run(&args(&["hotspots", "/nonexistent/x.ml"])).unwrap_err();
        assert!(err.contains("cannot read"));
    }

    #[test]
    fn hotspots_on_demo() {
        with_demo_file(|path| {
            let out = run(&args(&["hotspots", path, "--machine", "xeon", "--top", "3"])).unwrap();
            assert!(out.contains("Xeon"), "{out}");
            assert!(out.contains("sum") || out.contains("fill") || out.contains("lib:rand"), "{out}");
        });
    }

    #[test]
    fn skeleton_on_demo() {
        with_demo_file(|path| {
            let out = run(&args(&["skeleton", path])).unwrap();
            assert!(out.contains("func main()"), "{out}");
            assert!(out.contains("loop i = 0 .. n"), "{out}");
            assert!(out.contains("lib rand"), "{out}");
        });
    }

    #[test]
    fn bet_stats_on_demo() {
        with_demo_file(|path| {
            let out = run(&args(&["bet", path, "--input", "N=100000"])).unwrap();
            assert!(out.contains("BET nodes"), "{out}");
            assert!(out.contains("size ratio"), "{out}");
        });
    }

    #[test]
    fn simulate_and_compare_on_demo() {
        with_demo_file(|path| {
            let out = run(&args(&["simulate", path, "--machine", "bgq"])).unwrap();
            assert!(out.contains("L1 hit rate"), "{out}");
            let out = run(&args(&["compare", path])).unwrap();
            assert!(out.contains("Prof (measured)"), "{out}");
            assert!(out.contains("overlap"), "{out}");
        });
    }

    #[test]
    fn hotpath_on_demo() {
        with_demo_file(|path| {
            let out = run(&args(&["hotpath", path])).unwrap();
            assert!(out.contains("HOT #1"), "{out}");
        });
    }

    #[test]
    fn hotpath_ranks_library_call_sites_deterministically() {
        // SORD selects `rand`, whose call sites each model rebuilds into a
        // fresh hash map; their HOT ranks must not follow its order
        let first = run(&args(&["hotpath", "sord"])).unwrap();
        for _ in 0..8 {
            assert_eq!(run(&args(&["hotpath", "sord"])).unwrap(), first);
        }
    }

    #[test]
    fn input_overrides_defaults() {
        with_demo_file(|path| {
            let small = run(&args(&["bet", path, "--input", "N=4"])).unwrap();
            let large = run(&args(&["bet", path, "--input", "N=4000000"])).unwrap();
            // identical structure — only max ENR changes
            let nodes = |s: &str| s.lines().find(|l| l.contains("BET nodes")).unwrap().to_string();
            assert_eq!(nodes(&small), nodes(&large));
            assert_ne!(small, large);
        });
    }

    #[test]
    fn miniapp_on_demo() {
        with_demo_file(|path| {
            let out = run(&args(&["miniapp", path, "--leanness", "0.6"])).unwrap();
            assert!(out.contains("mini-application"), "{out}");
            assert!(out.contains("func main()"), "{out}");
            // the emitted skeleton is itself parseable
            let body = out.lines().skip(1).collect::<Vec<_>>().join("\n");
            assert!(crate::xflow_skeleton::parse(&body).is_ok(), "{body}");
        });
    }

    #[test]
    fn machine_file_loads_custom_model() {
        with_demo_file(|path| {
            let dir = std::path::Path::new(path).parent().unwrap();
            let mfile = dir.join("machine.json");
            let mut m = crate::generic();
            m.name = "custom-9000".into();
            std::fs::write(&mfile, serde_json::to_string(&m).unwrap()).unwrap();
            let out = run(&args(&["hotspots", path, "--machine-file", mfile.to_str().unwrap()])).unwrap();
            assert!(out.contains("custom-9000"), "{out}");
            // invalid model rejected
            m.freq_ghz = -1.0;
            std::fs::write(&mfile, serde_json::to_string(&m).unwrap()).unwrap();
            let err = run(&args(&["hotspots", path, "--machine-file", mfile.to_str().unwrap()])).unwrap_err();
            assert!(err.contains("invalid machine model"), "{err}");
        });
    }

    #[test]
    fn machine_registry_resolves_declarative_machines() {
        with_demo_file(|path| {
            // the repo's machines/ dir is picked up from the working dir
            let out = run(&args(&["hotspots", path, "--machine", "skylake"])).unwrap();
            assert!(out.contains("Skylake-SP"), "{out}");
            // an explicit --machines-dir is loaded even when it follows --machine
            let dir = std::path::Path::new(path).parent().unwrap();
            let mut m = crate::generic();
            m.name = "from-dir".into();
            std::fs::write(dir.join("boxy.json"), serde_json::to_string(&m).unwrap()).unwrap();
            let out =
                run(&args(&["hotspots", path, "--machine", "boxy", "--machines-dir", dir.to_str().unwrap()])).unwrap();
            assert!(out.contains("from-dir"), "{out}");
            let err = run(&args(&["hotspots", path, "--machine", "boxy"])).unwrap_err();
            assert!(err.contains("unknown machine `boxy`"), "{err}");
        });
    }

    #[test]
    fn explain_on_demo() {
        with_demo_file(|path| {
            let out = run(&args(&["explain", path, "--machine", "xeon", "--top", "2"])).unwrap();
            assert!(out.contains("machine: Xeon"), "{out}");
            assert!(out.contains("context:"), "{out}");
            assert!(out.contains("bound") || out.contains("memory") || out.contains("compute"), "{out}");
        });
    }

    #[test]
    fn explain_workload_by_name_json() {
        let out = run(&args(&["explain", "cfd", "--machine", "bgq", "--json"])).unwrap();
        assert!(out.starts_with('{'), "{out}");
        assert!(out.contains("\"machine\":\"BG/Q\""), "{out}");
        assert!(out.contains("compute_flux"), "{out}");
        // same invocation is deterministic
        let again = run(&args(&["explain", "cfd", "--machine", "bgq", "--json"])).unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn trace_out_writes_a_chrome_trace() {
        with_demo_file(|path| {
            let dir = std::path::Path::new(path).parent().unwrap();
            let trace = dir.join("trace.json");
            let out = run(&args(&["explain", path, "--no-cache-not-a-flag"])).unwrap_err();
            assert!(out.contains("unknown option"), "{out}");
            let out = run(&args(&["explain", path, "--trace-out", trace.to_str().unwrap()])).unwrap();
            assert!(out.contains("context:"), "{out}");
            let text = std::fs::read_to_string(&trace).unwrap();
            assert!(text.starts_with("{\"displayTimeUnit\":\"ms\""), "{text}");
            for stage in ["session.parse", "session.profile", "session.translate", "session.bet", "session.plan"] {
                assert!(text.contains(stage), "trace must span stage {stage}");
            }
            assert!(text.contains("plan.evaluate"), "trace must cover the explain evaluation");
            assert!(text.contains("session.parse.misses"), "trace must carry the session cache counters");
        });
    }

    #[test]
    fn no_cache_trace_spans_every_stage_as_a_miss() {
        use serde::Content;
        fn get<'a>(c: &'a Content, key: &str) -> Option<&'a Content> {
            match c {
                Content::Map(m) => m.iter().find(|(k, _)| *k == Content::Str(key.to_string())).map(|(_, v)| v),
                _ => None,
            }
        }
        let dir = std::env::temp_dir().join(format!("xflow-cli-nocache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.json");
        let out = run(&args(&["explain", "cfd", "--no-cache", "--trace-out", trace.to_str().unwrap()])).unwrap();
        assert!(out.contains("context:"), "{out}");
        let text = std::fs::read_to_string(&trace).unwrap();
        let doc: Content = serde_json::from_str(&text).unwrap();
        let Some(Content::Seq(events)) = get(&doc, "traceEvents") else { panic!("no trace events: {text}") };
        let named = |name: &str| -> Vec<&Content> {
            events.iter().filter(|e| get(e, "name") == Some(&Content::Str(name.to_string()))).collect()
        };
        for stage in ["parse", "profile", "translate", "bet", "plan"] {
            let name = format!("session.{stage}");
            let spans = named(&name);
            assert_eq!(spans.len(), 1, "one {name} span: {text}");
            let outcome = get(spans[0], "args").and_then(|a| get(a, "outcome"));
            assert_eq!(outcome, Some(&Content::Str("miss".to_string())), "{name} must be a cold build");
        }
        assert!(named("session.kernel").is_empty(), "the sweep kernel is derived, not a cached stage");
        assert!(!named("plan.evaluate").is_empty(), "trace must cover the explain evaluation");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn profile_ranks_opcodes_on_demo() {
        with_demo_file(|path| {
            let out = run(&args(&["profile", path, "--top", "5"])).unwrap();
            assert!(out.contains("VM instruction profile:"), "{out}");
            assert!(out.contains("opcode pair"), "{out}");
            // the demo's fill/sum loops make iteration ticks unavoidable
            assert!(out.contains("IterTick"), "{out}");
            let again = run(&args(&["profile", path, "--top", "5"])).unwrap();
            assert_eq!(out, again, "profile report must be deterministic");
        });
    }

    #[test]
    fn profile_json_is_byte_identical_across_runs() {
        let a = run(&args(&["profile", "cfd", "--json"])).unwrap();
        let b = run(&args(&["profile", "cfd", "--json"])).unwrap();
        assert_eq!(a, b, "profile --json must be byte-identical across runs");
        assert!(a.starts_with('{') && a.ends_with('\n'), "{a}");
        assert!(a.contains("\"instructions\":"), "{a}");
        assert!(a.contains("\"ops\":["), "{a}");
        assert!(a.contains("\"pairs\":["), "{a}");
        assert!(!a.contains("\"instructions\":0,"), "cfd executes instructions: {a}");
        assert!(a.contains("\"name\":\"IterTick\"") || a.contains("\"name\":\"Bin\""), "{a}");
    }

    #[test]
    fn profile_report_is_fusion_invariant() {
        // fused superinstructions account to their constituents, so the
        // report `profile` prints off the production bytecode equals the
        // one rendered from the unfused stream, byte for byte
        use crate::xflow_minilang as ml;
        for w in ["sord", "chargei", "srad", "cfd", "stassuij"] {
            for extra in [&["--json"][..], &["--top", "8"][..]] {
                let argv = args(&[&["profile", w][..], extra].concat());
                let printed = run(&argv).unwrap();
                let mut inv = parse_args(&argv, &machine_registry(&argv).unwrap()).unwrap();
                let prog = ml::parse(&resolve_source(&mut inv, w).unwrap().0).unwrap();
                let unfused = ml::reference::compile_unfused(&prog).unwrap();
                let (_, _, _, iprof) =
                    unfused.run_profiled(&inv.inputs, ml::NullTracer, ml::Limits::default(), ml::DEFAULT_SEED).unwrap();
                assert_eq!(printed, profile_report(&iprof, &inv), "{w} {extra:?}: report must be fusion-invariant");
            }
        }
    }

    #[test]
    fn profile_rejects_the_retired_fusion_flags() {
        for flag in ["--fused", "--no-fuse"] {
            let err = run(&args(&["profile", "cfd", flag])).unwrap_err();
            assert!(err.starts_with(&format!("unknown option `{flag}`")), "{err}");
        }
    }

    #[test]
    fn profile_accepts_every_builtin_workload_name() {
        // `profile` resolves FILE through the same workload-name fallback
        // as `explain` — pin it for all five paper workloads
        for name in ["sord", "chargei", "srad", "cfd", "stassuij"] {
            let out = run(&args(&["profile", name, "--top", "3"])).unwrap();
            assert!(out.contains("VM instruction profile:"), "workload {name}: {out}");
            assert!(!out.contains(" 0 instructions"), "workload {name} must execute: {out}");
        }
    }

    #[test]
    fn flight_out_writes_a_chrome_dump() {
        with_demo_file(|path| {
            let dir = std::path::Path::new(path).parent().unwrap();
            let flight = dir.join("flight.json");
            let out = run(&args(&["explain", path, "--flight-out", flight.to_str().unwrap()])).unwrap();
            assert!(out.contains("context:"), "{out}");
            let text = std::fs::read_to_string(&flight).unwrap();
            assert!(text.starts_with("{\"displayTimeUnit\":\"ms\""), "{text}");
            assert!(text.contains("session.parse"), "flight ring must hold the stage spans: {text}");
            assert!(text.contains("\"flightDropped\""), "{text}");

            // both flags together: the ring wraps the collector, so the
            // full trace and the flight dump cover the same run
            let trace = dir.join("trace2.json");
            let out = run(&args(&[
                "profile",
                path,
                "--flight-out",
                flight.to_str().unwrap(),
                "--trace-out",
                trace.to_str().unwrap(),
            ]))
            .unwrap();
            assert!(out.contains("VM instruction profile"), "{out}");
            let trace_text = std::fs::read_to_string(&trace).unwrap();
            assert!(trace_text.contains("vm.instructions"), "flushed opcode counters reach the trace: {trace_text}");
            let flight_text = std::fs::read_to_string(&flight).unwrap();
            assert!(flight_text.contains("vm.instructions"), "and the flight ring: {flight_text}");
        });
    }

    #[test]
    fn live_store_report_has_per_stage_waits_and_hit_ratio() {
        let mut stats = crate::store::CacheStats::default();
        stats.parse.hits = 3;
        stats.parse.misses = 1;
        stats.parse.singleflight_waits = 2;
        let text = live_store_report(&stats);
        assert!(text.contains("hit ratio: 75.0%"), "{text}");
        assert!(text.contains("single-flight waits: 2"), "{text}");
        for stage in ["parse", "profile", "translate", "bet", "plan", "sim"] {
            assert!(text.lines().any(|l| l.contains(&format!("  {stage}")) && l.contains("waits")), "{stage}: {text}");
        }
    }

    #[test]
    fn validate_workload_text_and_json() {
        let out = run(&args(&["validate", "srad", "--machine", "xeon"])).unwrap();
        assert!(out.contains("validate SRAD on Xeon"), "{out}");
        assert!(out.contains("PASS"), "{out}");
        let out = run(&args(&["validate", "srad", "--machine", "xeon", "--json"])).unwrap();
        assert!(out.starts_with('{'), "{out}");
        assert!(out.contains("\"passed\":true"), "{out}");
        assert!(out.contains("\"enr_exact\":true"), "{out}");
    }

    #[test]
    fn validate_on_demo_file_honors_seed() {
        with_demo_file(|path| {
            let a = run(&args(&["validate", path, "--seed", "7"])).unwrap();
            assert!(a.contains("seed 0x7"), "{a}");
            assert!(a.contains("PASS"), "{a}");
            let b = run(&args(&["validate", path, "--seed", "0x7"])).unwrap();
            assert_eq!(a, b, "decimal and hex seeds must agree");
        });
    }

    #[test]
    fn validate_all_runs_every_combo_in_parallel() {
        let out = run(&args(&["validate", "--all", "--machines", "bgq", "--jobs", "2"])).unwrap();
        assert!(out.contains("validated 5 combos (5 workloads × 1 machines): 5 passed"), "{out}");
        for w in ["SORD", "CHARGEI", "SRAD", "CFD", "STASSUIJ"] {
            assert!(out.contains(&format!("validate {w}")), "missing {w}: {out}");
        }
        // --jobs must not change the report
        let serial = run(&args(&["validate", "--all", "--machines", "bgq", "--jobs", "1"])).unwrap();
        assert_eq!(out, serial, "validate --all output must be scheduling-independent");
        // --json emits one array of full reports
        let json = run(&args(&["validate", "--all", "--machines", "bgq", "--jobs", "2", "--json"])).unwrap();
        assert!(json.starts_with('['), "{json}");
        assert_eq!(json.matches("\"passed\":true").count(), 5, "{json}");
    }

    #[test]
    fn oracle_writes_a_deterministic_corpus() {
        let dir = std::env::temp_dir().join(format!("xflow-cli-oracle-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out_a = dir.join("a.json");
        let out_b = dir.join("b.json");
        let summary =
            run(&args(&["oracle", "--gen", "4", "--machines", "bgq", "--jobs", "2", "--out", out_a.to_str().unwrap()]))
                .unwrap();
        assert!(summary.contains("4 combos (4 programs × 1 machines)"), "{summary}");
        // a second run at a different thread count is byte-identical
        run(&args(&["oracle", "--gen", "4", "--machines", "bgq", "--jobs", "1", "--out", out_b.to_str().unwrap()]))
            .unwrap();
        let a = std::fs::read_to_string(&out_a).unwrap();
        let b = std::fs::read_to_string(&out_b).unwrap();
        assert_eq!(a, b, "oracle corpus must be byte-identical across runs and thread counts");
        assert!(a.contains("\"records\""), "{a}");
        // --json prints the same corpus to stdout
        let json = run(&args(&["oracle", "--gen", "4", "--machines", "bgq", "--json"])).unwrap();
        assert_eq!(json, a);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oracle_rejects_bad_flags() {
        assert!(run(&args(&["oracle", "--machines", "cray9000"])).is_err());
        assert!(run(&args(&["oracle", "--scales", "huge"])).is_err());
        assert!(run(&args(&["oracle", "--gen", "many"])).is_err());
        assert!(run(&args(&["oracle", "/nonexistent-dir"])).is_err());
    }

    #[test]
    fn oracle_rejects_a_repeated_machine() {
        let err = run(&args(&["oracle", "--gen", "1", "--machines", "bgq,bgq"])).unwrap_err();
        assert!(err.contains("machine `BG/Q` is listed twice"), "{err}");
    }

    #[test]
    fn bad_options_error_cleanly() {
        assert!(run(&args(&["hotspots", "f.ml", "--machine", "cray"])).is_err());
        assert!(run(&args(&["hotspots", "f.ml", "--input", "noequals"])).is_err());
        assert!(run(&args(&["hotspots", "f.ml", "--definitely-not-an-option"])).is_err());
    }

    #[test]
    fn sweep_grid_on_demo() {
        with_demo_file(|path| {
            let out = run(&args(&[
                "sweep",
                path,
                "--machine",
                "generic",
                "--axis",
                "dram_bw_gbs=1,2,4",
                "--axis",
                "mlp=2,8",
                "--threads",
                "2",
                "--chunk",
                "1",
            ]))
            .unwrap();
            assert!(out.contains("points: 6"), "{out}");
            assert!(out.contains("dram_bw_gbs=1"), "{out}");
            assert!(out.contains("best:"), "{out}");
            assert!(out.contains("speedup"), "{out}");
            // scheduling must not change the report
            let serial = run(&args(&[
                "sweep",
                path,
                "--machine",
                "generic",
                "--axis",
                "dram_bw_gbs=1,2,4",
                "--axis",
                "mlp=2,8",
                "--threads",
                "1",
            ]))
            .unwrap();
            assert_eq!(out, serial, "sweep output must be scheduling-independent");
        });
    }

    #[test]
    fn sweep_rejects_bad_axes() {
        with_demo_file(|path| {
            let err = run(&args(&["sweep", path])).unwrap_err();
            assert!(err.contains("--axis"), "{err}");
            let err = run(&args(&["sweep", path, "--axis", "warp_drive=1,2"])).unwrap_err();
            assert!(err.contains("unknown axis parameter"), "{err}");
            let err = run(&args(&["sweep", path, "--axis", "mlp=fast"])).unwrap_err();
            assert!(err.contains("bad value"), "{err}");
            let err = run(&args(&["sweep", path, "--axis", "noequals"])).unwrap_err();
            assert!(err.contains("expected NAME=V1"), "{err}");
        });
    }

    #[test]
    fn sweep_rejects_invalid_grid_points() {
        // a zero clock is no machine: reject it, naming the point, before
        // its NaN totals reach the ranking
        let err = run(&args(&["sweep", "cfd", "--machine", "xeon", "--axis", "freq_ghz=0"])).unwrap_err();
        assert!(err.starts_with("sweep point #0 Xeon[freq_ghz=0] is not a valid machine: freq_ghz"), "{err}");
        let err =
            run(&args(&["sweep", "cfd", "--machine", "xeon", "--axis", "freq_ghz=2,0,3", "--top", "2"])).unwrap_err();
        assert!(err.starts_with("sweep point #1 "), "{err}");
    }

    #[test]
    fn sweep_top_limits_rows_and_ranks_best_first() {
        with_demo_file(|path| {
            let out =
                run(&args(&["sweep", path, "--axis", "cores=1,2,4,8", "--top", "2", "--machine", "xeon"])).unwrap();
            assert!(out.contains("points: 4"), "{out}");
            // ranked view: header + 2 rows, the slowest points are cut
            let rows: Vec<&str> =
                out.lines().filter(|l| l.chars().next().is_some_and(|c| c.is_ascii_digit())).collect();
            assert_eq!(rows.len(), 2, "{out}");
            // the first ranked row is the best point
            let best_line = out.lines().find(|l| l.starts_with("best:")).unwrap();
            let best_idx = best_line.split('#').nth(1).unwrap().split_whitespace().next().unwrap();
            assert!(rows[0].starts_with(best_idx), "{out}");
            // ranked output is byte-stable across runs
            let again =
                run(&args(&["sweep", path, "--axis", "cores=1,2,4,8", "--top", "2", "--machine", "xeon"])).unwrap();
            assert_eq!(out, again, "ranked sweep output must be deterministic");
        });
    }
}
