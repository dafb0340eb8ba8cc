//! # xflow — analytical modeling of application execution for
//! software-hardware co-design
//!
//! A from-scratch Rust reproduction of *"Analytically Modeling Application
//! Execution for Software-Hardware Co-Design"* (IPDPS 2014). The framework
//! projects an application's **hot spots**, **hot paths**, and per-block
//! **performance bottlenecks** on prospective hardware *without executing
//! anything on that hardware*:
//!
//! 1. the analysis engine ([`xflow_minilang`]) converts source into a
//!    SKOPE-style **code skeleton** ([`xflow_skeleton`]), folding in branch
//!    statistics from a single profiled run on the local machine;
//! 2. the skeleton plus an input binding produce a **Bayesian Execution
//!    Tree** ([`xflow_bet`]) — a statistical model of the execution flow
//!    whose size is independent of the input data size;
//! 3. an extended **roofline model** ([`xflow_hw`]) parameterized with the
//!    target machine projects per-block times, from which hot spots are
//!    selected and hot paths extracted ([`xflow_hotspot`]).
//!
//! The ground-truth side ([`xflow_sim`]) — an execution-driven cache and
//! cost simulator standing in for the paper's profiled BG/Q and Xeon runs —
//! and the five benchmark ports ([`xflow_workloads`]) complete the
//! evaluation loop.
//!
//! ## Quickstart
//!
//! ```
//! use xflow::{ModeledApp, bgq, xeon};
//! use xflow_minilang::InputSpec;
//!
//! let src = r#"
//! fn main() {
//!     let n = input("N", 256);
//!     let a = zeros(n);
//!     @fill: for i in 0 .. n { a[i] = rnd(); }
//!     @smooth: for i in 1 .. n - 1 {
//!         a[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
//!     }
//! }
//! "#;
//! let app = ModeledApp::from_source(src, &InputSpec::new()).unwrap();
//! let on_bgq = app.project_on(&bgq());
//! let on_xeon = app.project_on(&xeon());
//! // hot spots are ranked per machine — and may differ between machines
//! assert!(!on_bgq.ranking().is_empty());
//! assert!(!on_xeon.ranking().is_empty());
//! ```

pub mod cli;
pub mod compare;
pub mod explain;
pub mod multirank;
pub mod oracle;
pub mod pipeline;
mod pool;
pub mod serve;
pub mod session;
pub mod store;
pub mod sweep;
pub mod units;

pub use compare::{compare, evaluate, Comparison};
pub use explain::{explain, explain_observed, ChainStep, Explain, ExplainBlock, ExplainUnit};
pub use multirank::{format_scaling, project_scaling, BspSpec, RankPoint, ScalingKind};
pub use oracle::{
    build_corpus, builtin_programs, dir_programs, generated_programs, Corpus, CorpusRecord, OracleOptions,
    OracleProgram,
};
pub use pipeline::{MachineProjection, Measured, ModeledApp, PipelineError};
pub use pool::run_chunked;
pub use serve::{ServeConfig, Server};
pub use session::{default_session, CacheStats, Session, SessionConfig, StageKeys, StageStats};
pub use store::{ArtifactStore, DiskCacheReport, StoreConfig};
pub use sweep::{format_sweep, format_sweep_ranked, Axis, DesignSpace, Sweep, SweepDelta, SweepOptions, SweepPoint};
pub use units::{UnitCost, UnitIndex, Units, LIB_UNIT_BASE};

// Re-export the sub-crates under their full names…
pub use xflow_bet;
pub use xflow_hotspot;
pub use xflow_hw;
pub use xflow_minilang;
pub use xflow_obs;
pub use xflow_sim;
pub use xflow_skeleton;
pub use xflow_validate;
pub use xflow_workloads;

// …and the most common types at the top level.
pub use xflow_hotspot::{Criteria, Greedy, PlanKernel, Selection};
pub use xflow_hw::{bgq, generic, knl, xeon, MachineBuilder, MachineModel, MachineSpec, PerfModel, Roofline};
pub use xflow_minilang::{initial_env, InputSpec};
pub use xflow_obs::{CollectingRecorder, MetricsRegistry, NoopRecorder, ProgressTicker, Recorder, TraceSnapshot};
pub use xflow_sim::default_library;
pub use xflow_workloads::{Scale, Workload};

/// Hot-spot selection criteria used by this reproduction's experiments.
///
/// The paper uses coverage ≥ 90 % and leanness ≤ 10 % on applications of
/// thousands of source lines. The minilang ports are structurally faithful
/// but textually condensed (tens of statements), so 10 % of the *port's*
/// statements would cap selections at 3–4 statements; 25 % of the port
/// corresponds to roughly the same absolute code size the paper's budget
/// allows. See EXPERIMENTS.md.
pub const EVAL_CRITERIA: Criteria = Criteria { time_coverage: 0.9, code_leanness: 0.25 };

/// Build a mini-application skeleton from a selection's hot path — a
/// closed, projectable benchmark containing only the hot spots and the
/// control flow reaching them (paper Sections I / V-C).
pub fn build_miniapp(app: &ModeledApp, selection: &Selection) -> xflow_skeleton::Program {
    let stmts = selection_stmts(app, selection);
    xflow_hotspot::build_miniapp(&app.bet, &stmts)
}

/// Resolve a selection's units back to skeleton statement ids (library
/// units expand to every call site of that function, in ascending id
/// order so the hot-path ranks never depend on hash order).
fn selection_stmts(app: &ModeledApp, selection: &Selection) -> Vec<xflow_skeleton::StmtId> {
    let mut stmts = Vec::new();
    for spot in &selection.spots {
        if app.units.is_lib(spot.stmt) {
            let start = stmts.len();
            stmts.extend(app.units.lib_stmt_to_unit.iter().filter(|(_, &u)| u == spot.stmt).map(|(&s, _)| s));
            stmts[start..].sort_unstable();
        } else {
            stmts.push(spot.stmt);
        }
    }
    stmts
}

/// Extract and render the hot path of a selection (Figure 9 view).
pub fn hot_path_report(app: &ModeledApp, selection: &Selection) -> String {
    let stmts = selection_stmts(app, selection);
    let path = xflow_hotspot::extract(&app.bet, &stmts);
    let names = app.translation.skeleton.stmt_names();
    xflow_hotspot::render(&path, &app.bet, &names)
}
