//! Comparable cost units joining projected and measured profiles.
//!
//! Hot spots are compared at the granularity real profilers report:
//! source-level code blocks (skeleton `comp` statements) plus opaque
//! library functions as their own entities (`exp`, `rand`, …). Library
//! functions get stable pseudo statement ids above [`LIB_UNIT_BASE`] so the
//! whole hotspot toolchain (selection, quality, curves) can stay keyed by
//! `StmtId`.
//!
//! [`UnitIndex::fold`] is the one place statement costs are added into
//! units. `hotspots` and `compare` (through
//! [`ModeledApp::project_on`](crate::ModeledApp::project_on)), `explain`
//! and every `sweep` point read their unit rows from it, and rank them by
//! the one comparator [`xflow_hotspot::unit_order`], so no two reports can
//! disagree on a unit's time or rank.

use std::collections::HashMap;
use xflow_skeleton::{Program, StmtId, StmtKind};

/// Pseudo-id space for library-function units.
pub const LIB_UNIT_BASE: u32 = u32::MAX - 4096;

/// The unit table of one application.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Units {
    /// Human-readable name per unit.
    pub names: HashMap<StmtId, String>,
    /// Library function name → its pseudo unit id.
    pub lib_units: HashMap<String, StmtId>,
    /// Skeleton `lib` statement → its function's pseudo unit id.
    pub lib_stmt_to_unit: HashMap<StmtId, StmtId>,
    /// Static instruction weight per unit.
    pub instr: HashMap<StmtId, f64>,
    /// Total static instructions of the application.
    pub total_instr: f64,
    /// Dense index of the units that can carry projected time.
    index: UnitIndex,
}

/// Projected cost of one unit: the sums of its statements' costs.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitCost {
    /// Total projected seconds.
    pub total: f64,
    /// ENR-weighted computation seconds.
    pub tc: f64,
    /// ENR-weighted memory seconds.
    pub tm: f64,
    /// ENR-weighted overlapped seconds.
    pub overlap: f64,
}

impl UnitCost {
    /// Which roofline side dominates: `"memory"` when `Tm > Tc`, else
    /// `"compute"` (Figures 6–7).
    pub fn bound(&self) -> &'static str {
        if self.tm > self.tc {
            "memory"
        } else {
            "compute"
        }
    }
}

/// Dense index of the units that can carry projected time: one position
/// per `comp` statement and per library function, in ascending unit id.
/// Built once per application, so folding a projection or a sweep row
/// indexes arrays and never hashes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnitIndex {
    /// Unit id per position, ascending.
    ids: Vec<StmtId>,
    /// Skeleton statement id → position of its unit ([`u32::MAX`] for
    /// statements that carry no cost).
    pos: Vec<u32>,
}

impl UnitIndex {
    /// The one fold from statement costs to units. `costs` must ascend by
    /// statement id, as [`xflow_hotspot::StmtCosts::iter`] and
    /// [`xflow_hotspot::ProjectionColumns::stmt_row`] do: each unit adds
    /// its statements in that order, so every caller gets the same bits.
    /// `sums` is overwritten with one entry per unit position, `None` for
    /// units no statement reached; [`UnitIndex::reached`] reads it back.
    /// A sweep reuses one buffer for all its points.
    ///
    /// # Panics
    ///
    /// If a statement is not a `comp` or `lib` statement of the skeleton
    /// the index was built from (no projection of its BET produces one).
    pub fn fold(&self, costs: impl IntoIterator<Item = (StmtId, UnitCost)>, sums: &mut Vec<Option<UnitCost>>) {
        sums.clear();
        sums.resize(self.ids.len(), None);
        for (stmt, c) in costs {
            let pos = self.pos.get(stmt.0 as usize).copied().unwrap_or(u32::MAX);
            let sum = sums
                .get_mut(pos as usize)
                .unwrap_or_else(|| panic!("statement {} carries no cost unit", stmt.0))
                .get_or_insert_with(UnitCost::default);
            sum.total += c.total;
            sum.tc += c.tc;
            sum.tm += c.tm;
            sum.overlap += c.overlap;
        }
    }

    /// The units a [`UnitIndex::fold`] reached, ascending by unit id, with
    /// their sums.
    pub fn reached<'a>(&'a self, sums: &'a [Option<UnitCost>]) -> impl Iterator<Item = (StmtId, UnitCost)> + 'a {
        self.ids.iter().zip(sums).filter_map(|(&unit, sum)| Some((unit, (*sum)?)))
    }
}

impl Units {
    /// Build the unit table of a skeleton program.
    pub fn from_skeleton(prog: &Program) -> Units {
        let counts = xflow_skeleton::static_counts(prog);
        let names = prog.stmt_names();
        let mut u = Units { total_instr: counts.total(), ..Default::default() };

        // library functions, sorted for stable pseudo ids
        let mut lib_names: Vec<String> = Vec::new();
        prog.visit_stmts(|_, s| {
            if let StmtKind::LibCall { func, .. } = &s.kind {
                if !lib_names.contains(func) {
                    lib_names.push(func.clone());
                }
            }
        });
        lib_names.sort_unstable();
        for (k, func) in lib_names.iter().enumerate() {
            let id = StmtId(LIB_UNIT_BASE + k as u32);
            u.lib_units.insert(func.clone(), id);
            u.names.insert(id, format!("lib:{func}"));
            u.instr.insert(id, 8.0); // nominal opaque-code weight
        }

        // name statements with the innermost enclosing label for readable
        // hot spot tables ("stress_xx:comp#41" instead of "step_stress:comp#41")
        fn walk(
            u: &mut Units,
            names: &HashMap<StmtId, String>,
            counts: &xflow_skeleton::StaticCounts,
            block: &xflow_skeleton::Block,
            scope_label: Option<&str>,
        ) {
            for s in &block.stmts {
                let label = s.label.as_deref().or(scope_label);
                match &s.kind {
                    StmtKind::LibCall { func: f, .. } => {
                        let unit = u.lib_units[f];
                        u.lib_stmt_to_unit.insert(s.id, unit);
                    }
                    _ => {
                        let name = match (&s.label, label) {
                            (Some(l), _) => l.clone(),
                            (None, Some(l)) => format!("{l}:{}#{}", s.kind.keyword(), s.id.0),
                            (None, None) => names[&s.id].clone(),
                        };
                        u.names.insert(s.id, name);
                        u.instr.insert(s.id, counts.get(s.id));
                    }
                }
                match &s.kind {
                    StmtKind::Loop { body, .. } | StmtKind::While { body, .. } => walk(u, names, counts, body, label),
                    StmtKind::Branch { arms, else_body } => {
                        for arm in arms {
                            walk(u, names, counts, &arm.body, label);
                        }
                        if let Some(e) = else_body {
                            walk(u, names, counts, e, label);
                        }
                    }
                    _ => {}
                }
            }
        }
        for f in &prog.functions {
            walk(&mut u, &names, &counts, &f.body, None);
        }

        let mut comps: Vec<StmtId> = Vec::new();
        prog.visit_stmts(|_, s| {
            if matches!(s.kind, StmtKind::Comp(_)) {
                comps.push(s.id);
            }
        });
        let mut ids: Vec<StmtId> = comps.iter().chain(u.lib_units.values()).copied().collect();
        ids.sort_unstable();
        let bound = comps.iter().chain(u.lib_stmt_to_unit.keys()).map(|s| s.0 as usize + 1).max().unwrap_or(0);
        let mut pos = vec![u32::MAX; bound];
        for (i, &unit) in ids.iter().enumerate() {
            if !u.is_lib(unit) {
                pos[unit.0 as usize] = i as u32;
            }
        }
        for (&stmt, unit) in &u.lib_stmt_to_unit {
            pos[stmt.0 as usize] = ids.binary_search(unit).expect("library unit is indexed") as u32;
        }
        u.index = UnitIndex { ids, pos };
        u
    }

    /// The dense cost-unit index ([`UnitIndex::fold`]).
    pub fn index(&self) -> &UnitIndex {
        &self.index
    }

    /// Resolve a skeleton statement to its unit (lib statements fold into
    /// their function's unit; everything else is its own unit).
    pub fn unit_of(&self, stmt: StmtId) -> StmtId {
        self.lib_stmt_to_unit.get(&stmt).copied().unwrap_or(stmt)
    }

    /// Display name of a unit.
    pub fn name(&self, unit: StmtId) -> String {
        self.names.get(&unit).cloned().unwrap_or_else(|| format!("stmt#{}", unit.0))
    }

    /// Whether a unit is a library function.
    pub fn is_lib(&self, unit: StmtId) -> bool {
        unit.0 >= LIB_UNIT_BASE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xflow_skeleton::parse;

    #[test]
    fn lib_statements_fold_into_function_units() {
        let prog =
            parse("func main() { lib exp(1) comp { flops: 3 } loop i = 0 .. 4 { lib exp(2) lib rand(1) } }").unwrap();
        let u = Units::from_skeleton(&prog);
        assert_eq!(u.lib_units.len(), 2);
        let exp_unit = u.lib_units["exp"];
        // both exp statements resolve to the same unit
        let exp_stmts: Vec<StmtId> =
            u.lib_stmt_to_unit.iter().filter(|(_, &v)| v == exp_unit).map(|(&k, _)| k).collect();
        assert_eq!(exp_stmts.len(), 2);
        assert!(u.is_lib(exp_unit));
        assert_eq!(u.name(exp_unit), "lib:exp");
    }

    #[test]
    fn comp_units_keep_their_ids_and_weights() {
        let prog = parse("func main() { @k: comp { flops: 3, loads: 2 } }").unwrap();
        let u = Units::from_skeleton(&prog);
        let k = prog.stmt_by_label("k").unwrap();
        assert_eq!(u.unit_of(k), k);
        assert_eq!(u.name(k), "k");
        assert_eq!(u.instr[&k], 5.0);
        assert!(!u.is_lib(k));
    }

    #[test]
    fn pseudo_ids_are_stable_across_builds() {
        let src = "func main() { lib rand(1) lib exp(1) }";
        let a = Units::from_skeleton(&parse(src).unwrap());
        let b = Units::from_skeleton(&parse(src).unwrap());
        assert_eq!(a.lib_units["exp"], b.lib_units["exp"]);
        assert_eq!(a.lib_units["rand"], b.lib_units["rand"]);
        // sorted: exp before rand
        assert!(a.lib_units["exp"].0 < a.lib_units["rand"].0);
    }
}
