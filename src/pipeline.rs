//! The end-to-end modeling pipeline (paper Figure 1).
//!
//! `source → [profiled run] → code skeleton → BET → projection` on any
//! number of target machines, plus the ground-truth measurement path
//! (`source → simulator`) used to evaluate the projections.

use crate::units::{UnitCost, Units};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::OnceLock;
use xflow_bet::Bet;
use xflow_hotspot::{rank_units, Criteria, Greedy, MeasuredTimes, PlanKernel, Projection, ProjectionPlan, Selection};
use xflow_hw::{LibraryRegistry, MachineModel, PerfModel, Roofline};
use xflow_minilang::{self as ml, InputSpec, Translation};
use xflow_sim::StmtSim;
use xflow_skeleton::StmtId;
use xflow_workloads::{Scale, Workload};

/// Pipeline failure. Each variant wraps the stage's structured error;
/// [`std::error::Error::source`] exposes it so callers can walk causes.
/// `Clone` so the artifact store's single-flight latch can hand one build
/// failure to every waiter.
#[derive(Debug, Clone)]
pub enum PipelineError {
    Parse(xflow_skeleton::ParseError),
    Runtime(ml::RuntimeError),
    Translate(ml::TranslateError),
    Bet(xflow_bet::BuildError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Parse(e) => write!(f, "parse: {e}"),
            PipelineError::Runtime(e) => write!(f, "profiled run: {e}"),
            PipelineError::Translate(e) => write!(f, "translation: {e}"),
            PipelineError::Bet(e) => write!(f, "BET construction: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Parse(e) => Some(e),
            PipelineError::Runtime(e) => Some(e),
            PipelineError::Translate(e) => Some(e),
            PipelineError::Bet(e) => Some(e),
        }
    }
}

impl From<xflow_skeleton::ParseError> for PipelineError {
    fn from(e: xflow_skeleton::ParseError) -> Self {
        PipelineError::Parse(e)
    }
}

impl From<ml::RuntimeError> for PipelineError {
    fn from(e: ml::RuntimeError) -> Self {
        PipelineError::Runtime(e)
    }
}

impl From<xflow_bet::BuildError> for PipelineError {
    fn from(e: xflow_bet::BuildError) -> Self {
        PipelineError::Bet(e)
    }
}

/// A fully modeled application: parsed source, one local profile, the
/// generated skeleton, and the input-bound BET. Machine-independent —
/// project it on as many machines as you like.
pub struct ModeledApp {
    /// The minilang program.
    pub program: ml::Program,
    /// The local profiled run (branch/loop statistics).
    pub profile: ml::Profile,
    /// Skeleton + statement mapping + inputs.
    pub translation: Translation,
    /// The Bayesian Execution Tree for the bound inputs.
    pub bet: Bet,
    /// The comparable-unit table.
    pub units: Units,
    /// The input binding used for profiling and BET construction.
    pub inputs: InputSpec,
    /// The machine-independent projection plan (phase 1 of the two-phase
    /// engine), shared by every [`ModeledApp::project_on`] call.
    plan: ProjectionPlan,
    /// The SoA evaluation kernel, derived from the plan by the first
    /// design-space sweep over this app and shared by every later one.
    kernel: OnceLock<PlanKernel>,
}

impl ModeledApp {
    /// Model an application from minilang source and an input binding.
    ///
    /// Routes through the process-wide default [`Session`](crate::Session),
    /// so repeated calls with identical source + inputs reuse every cached
    /// stage artifact instead of re-running the front half of the pipeline.
    pub fn from_source(src: &str, inputs: &InputSpec) -> Result<ModeledApp, PipelineError> {
        crate::session::default_session().model(src, inputs)
    }

    /// Model one of the built-in benchmark workloads at a scale preset.
    pub fn from_workload(w: &Workload, scale: Scale) -> Result<ModeledApp, PipelineError> {
        Self::from_source(w.source, &w.inputs(scale))
    }

    /// Assemble a modeled app from the session's five stage artifacts.
    pub(crate) fn assemble(
        program: ml::Program,
        profile: ml::Profile,
        translation: Translation,
        bet: Bet,
        inputs: InputSpec,
        plan: ProjectionPlan,
    ) -> ModeledApp {
        let units = build_units(&program, &translation);
        ModeledApp { program, profile, translation, bet, units, inputs, plan, kernel: OnceLock::new() }
    }

    /// The machine-independent projection plan (phase 1), reused by every
    /// [`ModeledApp::project_on`] and design-space sweep.
    pub fn plan(&self) -> &ProjectionPlan {
        &self.plan
    }

    /// The SoA evaluation kernel compiled from [`ModeledApp::plan`]: built
    /// on first use, then reused by every design-space sweep over this app.
    pub fn kernel(&self) -> &PlanKernel {
        self.kernel.get_or_init(|| self.plan.kernel())
    }

    /// Project the application on a target machine (extended roofline,
    /// empirically calibrated library mixes).
    ///
    /// Per-machine cost is one plan evaluation (phase 2): the BET walk and
    /// library calibration are cached on the app and the process.
    pub fn project_on(&self, machine: &MachineModel) -> MachineProjection {
        MachineProjection::new(&self.units, machine, self.plan().evaluate(machine, &Roofline))
    }

    /// Projection with an explicit hardware model and library registry.
    ///
    /// Builds a fresh plan per call because the plan bakes in the library
    /// mixes; use [`ModeledApp::plan`] + [`ProjectionPlan::evaluate`] (or
    /// [`ModeledApp::project_on`]) for repeated default-library projections.
    pub fn project_with(
        &self,
        machine: &MachineModel,
        model: &dyn PerfModel,
        libs: &LibraryRegistry,
    ) -> MachineProjection {
        MachineProjection::new(&self.units, machine, xflow_hotspot::project(&self.bet, machine, model, libs))
    }

    /// Measure the application on a machine with the ground-truth
    /// simulator, returning the measured unit profile.
    pub fn measure_on(&self, w: Option<&Workload>, machine: &MachineModel) -> Result<Measured, PipelineError> {
        let cfg = match w {
            Some(w) => w.sim_config(&self.program, machine),
            None => xflow_sim::SimConfig::default(),
        };
        let report = xflow_sim::simulate(&self.program, &self.inputs, machine, cfg)?;
        Ok(Measured::from_report(report, &self.translation, &self.units))
    }

    /// BET size ratio vs. skeleton statements (paper: avg ≈ 0.88, < 2).
    pub fn bet_size_ratio(&self) -> f64 {
        self.bet.size_ratio(self.translation.skeleton.source_statement_count())
    }
}

/// Build the comparable-unit table for a translated program.
///
/// Code leanness is a *source-level* notion (fraction of the application's
/// statements), so every unit is weighted by the number of source statements
/// that map to it, not by its condensed op counts; library units are opaque
/// code with a nominal single-statement weight.
pub(crate) fn build_units(program: &ml::Program, translation: &Translation) -> Units {
    let mut units = Units::from_skeleton(&translation.skeleton);
    let mut per_unit: HashMap<StmtId, f64> = HashMap::new();
    for skel in translation.map.values() {
        *per_unit.entry(units.unit_of(*skel)).or_insert(0.0) += 1.0;
    }
    for (unit, w) in per_unit {
        units.instr.insert(unit, w);
    }
    for unit in units.lib_units.values() {
        units.instr.insert(*unit, 1.0);
    }
    units.total_instr = program.stmt_count() as f64;
    units
}

/// A projection of one application on one machine, in unit view.
pub struct MachineProjection {
    pub machine: MachineModel,
    pub projection: Projection,
    /// Projected total/Tc/Tm/overlap per unit ([`UnitIndex::fold`] over
    /// the projection's statements), ascending by unit id (Figures 6–7).
    ///
    /// [`UnitIndex::fold`]: crate::units::UnitIndex::fold
    pub unit_breakdown: BTreeMap<StmtId, UnitCost>,
    /// Total projected seconds.
    pub total: f64,
}

impl MachineProjection {
    /// Fold a per-statement projection into the unit view.
    pub(crate) fn new(units: &Units, machine: &MachineModel, projection: Projection) -> Self {
        let costs = projection
            .per_stmt
            .iter()
            .map(|(stmt, c)| (stmt, UnitCost { total: c.total, tc: c.tc, tm: c.tm, overlap: c.overlap }));
        let mut sums = Vec::new();
        units.index().fold(costs, &mut sums);
        MachineProjection {
            machine: machine.clone(),
            total: projection.total_time,
            unit_breakdown: units.index().reached(&sums).collect(),
            projection,
        }
    }

    /// Units ranked by descending projected time ([`rank_units`]).
    pub fn ranking(&self) -> Vec<StmtId> {
        rank_units(self.unit_breakdown.iter().map(|(&unit, c)| (unit, c.total)))
    }

    /// Hot spot selection under the given criteria.
    pub fn select(&self, units: &Units, criteria: Criteria) -> Selection {
        // ascending unit order: `select` sums candidate times in slice order
        let cands: Vec<xflow_hotspot::Candidate> = self
            .unit_breakdown
            .iter()
            .map(|(&unit, c)| xflow_hotspot::Candidate {
                stmt: unit,
                time: c.total,
                instr: units.instr.get(&unit).copied().unwrap_or(1.0),
            })
            .collect();
        xflow_hotspot::select(&cands, units.total_instr, criteria, Greedy::ByTime)
    }
}

/// A measured (simulated) profile in unit view.
pub struct Measured {
    /// The raw simulation report.
    pub report: xflow_sim::SimReport,
    /// Simulated totals per unit: the report folded onto skeleton
    /// statements ([`SimReport::fold_to_skeleton`](xflow_sim::SimReport::fold_to_skeleton)),
    /// those rows added to their units in ascending statement order, then
    /// library time added per function in name order.
    pub per_unit: BTreeMap<StmtId, StmtSim>,
    /// The measured seconds per unit as a [`MeasuredTimes`] oracle for
    /// quality metrics.
    pub oracle: MeasuredTimes,
}

impl Measured {
    fn from_report(report: xflow_sim::SimReport, translation: &Translation, units: &Units) -> Measured {
        let mut per_unit: BTreeMap<StmtId, StmtSim> = BTreeMap::new();
        for (stmt, sim) in report.fold_to_skeleton(&translation.map) {
            *per_unit.entry(units.unit_of(stmt)).or_default() += sim;
        }
        let freq_hz = report.freq_ghz * 1e9;
        let mut libs: Vec<(&String, &f64)> = report.lib_cycles.iter().collect();
        libs.sort_unstable_by_key(|&(name, _)| name);
        for (name, &cycles) in libs {
            if let Some(&unit) = units.lib_units.get(name) {
                *per_unit.entry(unit).or_default() += StmtSim {
                    seconds: cycles / freq_hz,
                    cycles,
                    instrs: report.lib_instrs.get(name).copied().unwrap_or(0),
                    ..StmtSim::default()
                };
            }
        }
        let oracle = MeasuredTimes::new(per_unit.iter().map(|(&unit, s)| (unit, s.seconds)).collect());
        Measured { report, per_unit, oracle }
    }

    /// Measured issue rate (instructions per cycle) of a unit — Figure 8.
    pub fn issue_rate(&self, unit: StmtId) -> f64 {
        match self.per_unit.get(&unit) {
            Some(s) if s.cycles != 0.0 => s.instrs as f64 / s.cycles,
            _ => 0.0,
        }
    }

    /// Measured instructions per L1 miss of a unit — Figure 8 (returns the
    /// instruction count when the unit never missed).
    pub fn instr_per_l1_miss(&self, unit: StmtId) -> f64 {
        let s = self.per_unit.get(&unit).copied().unwrap_or_default();
        s.instrs as f64 / s.l1_misses.max(1) as f64
    }

    /// Units ranked by descending measured time.
    pub fn ranking(&self) -> Vec<StmtId> {
        self.oracle.ranking()
    }

    /// Total measured seconds.
    pub fn total(&self) -> f64 {
        self.oracle.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::compare;
    use xflow_hw::{bgq, xeon};

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn measured_and_compare_survive_a_report_round_trip() {
        // a serde round trip rebuilds every map of the report with fresh
        // hash keys, so anything summed in map order would move
        for w in xflow_workloads::all() {
            let app = ModeledApp::from_workload(&w, Scale::Test).unwrap();
            for machine in [bgq(), xeon()] {
                let ctx = format!("{} on {}", w.name, machine.name);
                let cfg = w.sim_config(&app.program, &machine);
                let report = xflow_sim::simulate(&app.program, &app.inputs, &machine, cfg).unwrap();
                let json = serde_json::to_string(&report).unwrap();
                let a = Measured::from_report(report, &app.translation, &app.units);
                let b = Measured::from_report(serde_json::from_str(&json).unwrap(), &app.translation, &app.units);
                assert_eq!(a.total().to_bits(), b.total().to_bits(), "{ctx}: total");
                let unit_bits = |m: &Measured| -> Vec<(StmtId, u64)> {
                    let mut v: Vec<(StmtId, u64)> = m.oracle.times.iter().map(|(&u, t)| (u, t.to_bits())).collect();
                    v.sort();
                    v
                };
                assert_eq!(unit_bits(&a), unit_bits(&b), "{ctx}: unit times");
                let mp = app.project_on(&machine);
                let (ca, cb) = (compare(&mp, &a, 10), compare(&mp, &b, 10));
                assert_eq!(bits(&ca.prof_curve), bits(&cb.prof_curve), "{ctx}: Prof");
                assert_eq!(bits(&ca.modl_p_curve), bits(&cb.modl_p_curve), "{ctx}: Modl(p)");
                assert_eq!(bits(&ca.modl_m_curve), bits(&cb.modl_m_curve), "{ctx}: Modl(m)");
                assert_eq!(bits(&ca.quality), bits(&cb.quality), "{ctx}: Q(k)");
            }
        }
    }
}
