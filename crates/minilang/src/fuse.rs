//! Profile-guided superinstruction fusion for the bytecode VM.
//!
//! A peephole pass over compiled bytecode that rewrites the hottest
//! opcode digrams into *superinstructions* — single `Op` variants that
//! execute both constituents in one dispatch. The digram set is **static
//! and committed** ([`FUSED_KIND_NAMES`]): it was chosen offline from the
//! measured digram distribution (`xflow profile` / `InstrProfile::
//! ranked_pairs`) across the five paper workloads, so the pass needs no
//! profile at fuse time and every build fuses identically. DESIGN.md §14
//! records the measurement that picked the table.
//!
//! Fusion is behavior-preserving by construction:
//!
//! * every fused arm in the dispatch loop executes its constituents'
//!   exact code in order — same semantic [`Profile`](crate::Profile)
//!   accounting, same tracer event stream, same error precedence, same
//!   RNG draws — so results are bit-identical to the unfused VM;
//! * a pair is **never** fused when its second constituent is a jump
//!   target (the *fusion barrier*): a branch landing mid-pair must keep
//!   observing an instruction boundary there. Jumping *to* the first
//!   constituent is fine — the fused op executes both, exactly like
//!   falling through the unfused pair;
//! * after rewriting, every jump target is remapped through the old→new
//!   pc map (shrunk code moves every downstream instruction);
//! * when instruction profiling is enabled, fused ops account their
//!   constituent opcodes to the ordinary per-opcode and digram counters
//!   (see `vm.rs`), so `InstrProfile` — and therefore every `xflow
//!   profile` report and `vm.op.*` / `vm.pair.*` counter — is
//!   byte-identical between fused and unfused runs. Fused dispatches are
//!   additionally counted per superinstruction kind, off to the side.
//!
//! The pass is greedy leftmost and idempotent: fused variants never match
//! the (base-op, base-op) patterns, so `fuse(fuse(p)) == fuse(p)`.

use crate::ast::*;
use crate::vm::{Op, VmFunc, VmProgram};

/// Number of superinstruction kinds in the committed fusion table.
pub const NUM_FUSED_KINDS: usize = 16;

/// The committed fusion table: `"A.B"` names of the fused digrams, in
/// descending order of their aggregate measured dynamic count across the
/// five paper workloads (sord, chargei, srad, cfd, stassuij) at test
/// scale. Indexed by the dense fused-kind index used by
/// [`InstrProfile::ranked_fused`](crate::InstrProfile::ranked_fused).
pub const FUSED_KIND_NAMES: [&str; NUM_FUSED_KINDS] = [
    "LoadScalar.LoadElem",
    "StmtEnter.LoadScalar",
    "LoadScalar.LoadScalar",
    "LoadScalar.Bin",
    "LoadElem.Bin",
    "Bin.LoadScalar",
    "Bin.Bin",
    "StoreSlot.StmtEnter",
    "Bin.StoreSlot",
    "Bin.StoreElem",
    "Bin.LoadElem",
    "Num.Bin",
    "LoadScalar.Num",
    "StoreElem.StmtEnter",
    "AdvanceRaw.Jump",
    "IterTick.LoadScalar",
];

/// Static fusion summary of one [`fuse_with_report`] pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FuseReport {
    /// Rewrite sites per fused kind, indexed like [`FUSED_KIND_NAMES`].
    pub sites: [u64; NUM_FUSED_KINDS],
    /// Instruction count before fusion (all functions).
    pub code_before: usize,
    /// Instruction count after fusion.
    pub code_after: usize,
}

impl FuseReport {
    /// Total static rewrite sites.
    pub fn total_sites(&self) -> u64 {
        self.sites.iter().sum()
    }

    /// Per-kind static site counts with names, nonzero entries only,
    /// in table (frequency) order.
    pub fn named_sites(&self) -> Vec<(&'static str, u64)> {
        FUSED_KIND_NAMES.iter().zip(self.sites.iter()).filter(|(_, n)| **n > 0).map(|(k, n)| (*k, *n)).collect()
    }

    /// Flush the static site counts into a recorder as
    /// `vm.fuse.sites.<A>.<B>` counters plus a `vm.fuse.sites` total.
    pub fn flush_to<R: xflow_obs::Recorder + ?Sized>(&self, rec: &R) {
        rec.add("vm.fuse.sites", self.total_sites());
        for (name, n) in self.named_sites() {
            rec.add(&format!("vm.fuse.sites.{name}"), n);
        }
    }
}

/// Fuse a compiled program. See the module docs for the guarantees.
pub fn fuse(vm: &VmProgram) -> VmProgram {
    fuse_with_report(vm).0
}

/// [`fuse`], also returning the static rewrite summary.
pub fn fuse_with_report(vm: &VmProgram) -> (VmProgram, FuseReport) {
    let mut report = FuseReport::default();
    let funcs = vm.funcs.iter().map(|f| fuse_fn(f, &mut report)).collect();
    (VmProgram { funcs, entry: vm.entry, n_stmts: vm.n_stmts }, report)
}

/// Compile a program and fuse it in one step.
pub fn compile_fused(prog: &Program) -> Result<VmProgram, crate::RuntimeError> {
    Ok(fuse(&crate::vm::compile(prog)?))
}

fn fuse_fn(f: &VmFunc, report: &mut FuseReport) -> VmFunc {
    let code = &f.code;
    report.code_before += code.len();

    // Fusion barriers: no pair may absorb an instruction some jump lands
    // on. (Function entry is pc 0, which can never be a pair's second.)
    let mut is_target = vec![false; code.len() + 1];
    for op in code {
        match op {
            Op::Jump(t) | Op::JumpIfZero(t) => is_target[*t] = true,
            Op::JumpIfGeRaw { target, .. } | Op::AdvanceJump { target, .. } => is_target[*target] = true,
            _ => {}
        }
    }

    // Greedy leftmost rewrite, recording where every old pc landed.
    let mut new_code: Vec<Op> = Vec::with_capacity(code.len());
    let mut new_pc = vec![usize::MAX; code.len() + 1];
    let mut i = 0;
    while i < code.len() {
        new_pc[i] = new_code.len();
        if i + 1 < code.len() && !is_target[i + 1] {
            if let Some((fused, kind)) = try_fuse(&code[i], &code[i + 1]) {
                report.sites[kind] += 1;
                // the second constituent is absorbed; nothing jumps there
                new_pc[i + 1] = new_code.len();
                new_code.push(fused);
                i += 2;
                continue;
            }
        }
        new_code.push(code[i].clone());
        i += 1;
    }
    new_pc[code.len()] = new_code.len();

    // Remap every jump target through the move map. Targets always name
    // an instruction start that survived (the barrier guarantees it), or
    // the first constituent of a pair — whose fused op is the right
    // landing site.
    for op in &mut new_code {
        match op {
            Op::Jump(t) | Op::JumpIfZero(t) => *t = new_pc[*t],
            Op::JumpIfGeRaw { target, .. } | Op::AdvanceJump { target, .. } => *target = new_pc[*target],
            _ => {}
        }
    }

    report.code_after += new_code.len();
    VmFunc {
        name: f.name.clone(),
        n_params: f.n_params,
        n_slots: f.n_slots,
        slot_names: f.slot_names.clone(),
        input_table: f.input_table.clone(),
        call_sites: f.call_sites.clone(),
        code: new_code,
    }
}

/// Match one adjacent pair against the committed digram table. Returns
/// the superinstruction and its dense fused-kind index.
fn try_fuse(a: &Op, b: &Op) -> Option<(Op, usize)> {
    Some(match (a, b) {
        (Op::LoadScalar(i), Op::LoadElem(s)) => (Op::LoadScalarElem { idx: *i, arr: *s }, 0),
        (Op::StmtEnter(id), Op::LoadScalar(s)) => (Op::StmtEnterLoad { id: *id, slot: *s }, 1),
        (Op::LoadScalar(x), Op::LoadScalar(y)) => (Op::LoadScalar2 { a: *x, b: *y }, 2),
        (Op::LoadScalar(s), Op::Bin { op, idx_ctx }) => (Op::LoadScalarBin { slot: *s, op: *op, idx_ctx: *idx_ctx }, 3),
        (Op::LoadElem(s), Op::Bin { op, idx_ctx }) => (Op::LoadElemBin { arr: *s, op: *op, idx_ctx: *idx_ctx }, 4),
        (Op::Bin { op, idx_ctx }, Op::LoadScalar(s)) => (Op::BinLoadScalar { op: *op, idx_ctx: *idx_ctx, slot: *s }, 5),
        (Op::Bin { op: op1, idx_ctx: c1 }, Op::Bin { op: op2, idx_ctx: c2 }) => {
            (Op::Bin2 { op1: *op1, ctx1: *c1, op2: *op2, ctx2: *c2 }, 6)
        }
        (Op::StoreSlot(s), Op::StmtEnter(id)) => (Op::StoreSlotEnter { slot: *s, id: *id }, 7),
        (Op::Bin { op, idx_ctx }, Op::StoreSlot(s)) => (Op::BinStoreSlot { op: *op, idx_ctx: *idx_ctx, slot: *s }, 8),
        (Op::Bin { op, idx_ctx }, Op::StoreElem(s)) => (Op::BinStoreElem { op: *op, idx_ctx: *idx_ctx, arr: *s }, 9),
        (Op::Bin { op, idx_ctx }, Op::LoadElem(s)) => (Op::BinLoadElem { op: *op, idx_ctx: *idx_ctx, arr: *s }, 10),
        (Op::Num(n), Op::Bin { op, idx_ctx }) => (Op::NumBin { n: *n, op: *op, idx_ctx: *idx_ctx }, 11),
        (Op::LoadScalar(s), Op::Num(n)) => (Op::LoadScalarNum { slot: *s, n: *n }, 12),
        (Op::StoreElem(s), Op::StmtEnter(id)) => (Op::StoreElemEnter { arr: *s, id: *id }, 13),
        (Op::AdvanceRaw { cur, step }, Op::Jump(t)) => (Op::AdvanceJump { cur: *cur, step: *step, target: *t }, 14),
        (Op::IterTick(id), Op::LoadScalar(s)) => (Op::IterTickLoad { id: *id, slot: *s }, 15),
        _ => return None,
    })
}

/// Constituent decomposition of a superinstruction: `(fused_kind,
/// first_op_kind, second_op_kind)` in [`FUSED_KIND_NAMES`] /
/// `OP_KIND_NAMES` index space. `None` for base ops. The dispatch loop
/// uses this to account fused executions to the constituent counters.
pub(crate) fn fused_parts(op: &Op) -> Option<(usize, usize, usize)> {
    use crate::vm::kind;
    Some(match op {
        Op::LoadScalarElem { .. } => (0, kind::LOAD_SCALAR, kind::LOAD_ELEM),
        Op::StmtEnterLoad { .. } => (1, kind::STMT_ENTER, kind::LOAD_SCALAR),
        Op::LoadScalar2 { .. } => (2, kind::LOAD_SCALAR, kind::LOAD_SCALAR),
        Op::LoadScalarBin { .. } => (3, kind::LOAD_SCALAR, kind::BIN),
        Op::LoadElemBin { .. } => (4, kind::LOAD_ELEM, kind::BIN),
        Op::BinLoadScalar { .. } => (5, kind::BIN, kind::LOAD_SCALAR),
        Op::Bin2 { .. } => (6, kind::BIN, kind::BIN),
        Op::StoreSlotEnter { .. } => (7, kind::STORE_SLOT, kind::STMT_ENTER),
        Op::BinStoreSlot { .. } => (8, kind::BIN, kind::STORE_SLOT),
        Op::BinStoreElem { .. } => (9, kind::BIN, kind::STORE_ELEM),
        Op::BinLoadElem { .. } => (10, kind::BIN, kind::LOAD_ELEM),
        Op::NumBin { .. } => (11, kind::NUM, kind::BIN),
        Op::LoadScalarNum { .. } => (12, kind::LOAD_SCALAR, kind::NUM),
        Op::StoreElemEnter { .. } => (13, kind::STORE_ELEM, kind::STMT_ENTER),
        Op::AdvanceJump { .. } => (14, kind::ADVANCE_RAW, kind::JUMP),
        Op::IterTickLoad { .. } => (15, kind::ITER_TICK, kind::LOAD_SCALAR),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::runtime::NullTracer;
    use crate::vm::{compile, run_vm};
    use crate::InputSpec;

    fn fused_of(src: &str) -> (VmProgram, VmProgram, FuseReport) {
        let prog = parse(src).unwrap();
        let vm = compile(&prog).unwrap();
        let (fused, report) = fuse_with_report(&vm);
        (vm, fused, report)
    }

    #[test]
    fn fusion_shrinks_code_and_counts_sites() {
        let (vm, fused, report) = fused_of(
            "fn main() { let n = 64; let a = zeros(n); let s = 0;
               for i in 0 .. n { a[i] = i * 2.0; }
               for i in 0 .. n { s = s + a[i]; }
               print(s); }",
        );
        assert!(fused.code_len() < vm.code_len(), "{} !< {}", fused.code_len(), vm.code_len());
        assert_eq!(report.code_before, vm.code_len());
        assert_eq!(report.code_after, fused.code_len());
        assert_eq!(report.total_sites() as usize, vm.code_len() - fused.code_len());
        // the for-loop back edge always fuses
        assert!(report.sites[14] > 0, "AdvanceRaw.Jump must fuse: {report:?}");
    }

    #[test]
    fn fusion_is_idempotent() {
        let (_, fused, _) = fused_of("fn main() { let s = 0; for i in 0 .. 9 { s = s + i * i; } print(s); }");
        let (refused, report) = fuse_with_report(&fused);
        assert_eq!(report.total_sites(), 0, "{report:?}");
        assert_eq!(refused.disasm(), fused.disasm());
    }

    #[test]
    fn fused_table_and_names_stay_aligned() {
        assert_eq!(FUSED_KIND_NAMES.len(), NUM_FUSED_KINDS);
        let mut seen = std::collections::HashSet::new();
        for n in FUSED_KIND_NAMES {
            assert!(seen.insert(n), "duplicate fused name {n}");
            let (a, b) = n.split_once('.').expect("A.B name");
            assert!(crate::vm::OP_KIND_NAMES.contains(&a), "{a}");
            assert!(crate::vm::OP_KIND_NAMES.contains(&b), "{b}");
        }
    }

    #[test]
    fn fused_programs_run_bit_identical() {
        let src = "fn main() {
            let n = input(\"N\", 40);
            let a = zeros(n);
            for i in 0 .. n { a[i] = rnd() * 3.0 + sqrt(i + 1); }
            let s = 0;
            let j = 0;
            while j < n {
                if a[j] > 2.0 { s = s + a[j] * 0.5; } else { s = s - 1; }
                j = j + 1;
            }
            print(s);
        }";
        let (vm, fused, report) = fused_of(src);
        assert!(report.total_sites() > 0);
        let spec = InputSpec::new();
        let (p1, _, r1) = run_vm(&vm, &spec, NullTracer).unwrap();
        let (p2, _, r2) = run_vm(&fused, &spec, NullTracer).unwrap();
        assert_eq!(r1.to_bits(), r2.to_bits());
        assert_eq!(p1.printed, p2.printed);
        assert_eq!(p1.stmt_ops, p2.stmt_ops);
        assert_eq!(p1.stmt_exec, p2.stmt_exec);
        assert_eq!(p1.loops, p2.loops);
        assert_eq!(p1.branches, p2.branches);
        assert_eq!(p1.lib_calls, p2.lib_calls);
    }

    #[test]
    fn errors_survive_fusion_identically() {
        // out-of-bounds store inside a fused Bin.StoreElem region
        let src = "fn main() { let a = zeros(4); let i = 9; a[i] = 1.0 + 2.0; }";
        let (vm, fused, _) = fused_of(src);
        let e1 = run_vm(&vm, &InputSpec::new(), NullTracer).unwrap_err();
        let e2 = run_vm(&fused, &InputSpec::new(), NullTracer).unwrap_err();
        assert_eq!(e1.to_string(), e2.to_string());
        // unbound variable read through a fused LoadScalar pair
        let src = "fn main() { let x = ghost + 1; print(x); }";
        let (vm, fused, _) = fused_of(src);
        let e1 = run_vm(&vm, &InputSpec::new(), NullTracer).unwrap_err();
        let e2 = run_vm(&fused, &InputSpec::new(), NullTracer).unwrap_err();
        assert_eq!(e1.to_string(), e2.to_string());
    }
}
