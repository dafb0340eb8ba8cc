//! Profile-guided superinstruction fusion for the bytecode VM.
//!
//! The last step of [`crate::compile`]: a peephole pass over the lowered
//! base stream ([`crate::reference::compile_unfused`]) that rewrites the hottest
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
//!   RNG draws — so results are bit-identical to the unfused stream;
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

use crate::vm::{Op, VmProgram};

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

/// Fuse a lowered program in place. See the module docs for the
/// guarantees.
pub(crate) fn fuse(mut vm: VmProgram) -> VmProgram {
    for f in &mut vm.funcs {
        f.code = fuse_code(&f.code);
    }
    vm
}

fn fuse_code(code: &[Op]) -> Vec<Op> {
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
            if let Some(fused) = try_fuse(&code[i], &code[i + 1]) {
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
    new_code
}

/// Match one adjacent pair against the committed digram table.
fn try_fuse(a: &Op, b: &Op) -> Option<Op> {
    Some(match (a, b) {
        (Op::LoadScalar(i), Op::LoadElem(s)) => Op::LoadScalarElem { idx: *i, arr: *s },
        (Op::StmtEnter(id), Op::LoadScalar(s)) => Op::StmtEnterLoad { id: *id, slot: *s },
        (Op::LoadScalar(x), Op::LoadScalar(y)) => Op::LoadScalar2 { a: *x, b: *y },
        (Op::LoadScalar(s), Op::Bin { op, idx_ctx }) => Op::LoadScalarBin { slot: *s, op: *op, idx_ctx: *idx_ctx },
        (Op::LoadElem(s), Op::Bin { op, idx_ctx }) => Op::LoadElemBin { arr: *s, op: *op, idx_ctx: *idx_ctx },
        (Op::Bin { op, idx_ctx }, Op::LoadScalar(s)) => Op::BinLoadScalar { op: *op, idx_ctx: *idx_ctx, slot: *s },
        (Op::Bin { op: op1, idx_ctx: c1 }, Op::Bin { op: op2, idx_ctx: c2 }) => {
            Op::Bin2 { op1: *op1, ctx1: *c1, op2: *op2, ctx2: *c2 }
        }
        (Op::StoreSlot(s), Op::StmtEnter(id)) => Op::StoreSlotEnter { slot: *s, id: *id },
        (Op::Bin { op, idx_ctx }, Op::StoreSlot(s)) => Op::BinStoreSlot { op: *op, idx_ctx: *idx_ctx, slot: *s },
        (Op::Bin { op, idx_ctx }, Op::StoreElem(s)) => Op::BinStoreElem { op: *op, idx_ctx: *idx_ctx, arr: *s },
        (Op::Bin { op, idx_ctx }, Op::LoadElem(s)) => Op::BinLoadElem { op: *op, idx_ctx: *idx_ctx, arr: *s },
        (Op::Num(n), Op::Bin { op, idx_ctx }) => Op::NumBin { n: *n, op: *op, idx_ctx: *idx_ctx },
        (Op::LoadScalar(s), Op::Num(n)) => Op::LoadScalarNum { slot: *s, n: *n },
        (Op::StoreElem(s), Op::StmtEnter(id)) => Op::StoreElemEnter { arr: *s, id: *id },
        (Op::AdvanceRaw { cur, step }, Op::Jump(t)) => Op::AdvanceJump { cur: *cur, step: *step, target: *t },
        (Op::IterTick(id), Op::LoadScalar(s)) => Op::IterTickLoad { id: *id, slot: *s },
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
    use crate::runtime::{Limits, NullTracer, Profile, RuntimeError};
    use crate::vm::{compile, lower};
    use crate::InputSpec;

    /// A source's base stream and its fused production bytecode.
    fn fused_of(src: &str) -> (VmProgram, VmProgram) {
        let prog = parse(src).unwrap();
        (lower(&prog).unwrap(), compile(&prog).unwrap())
    }

    fn run(vm: &VmProgram) -> Result<(Profile, NullTracer, f64), RuntimeError> {
        vm.run(&InputSpec::new(), NullTracer, Limits::default(), crate::DEFAULT_SEED)
    }

    #[test]
    fn fusion_shrinks_code() {
        let (vm, fused) = fused_of(
            "fn main() { let n = 64; let a = zeros(n); let s = 0;
               for i in 0 .. n { a[i] = i * 2.0; }
               for i in 0 .. n { s = s + a[i]; }
               print(s); }",
        );
        assert!(fused.code_len() < vm.code_len(), "{} !< {}", fused.code_len(), vm.code_len());
        // the for-loop back edge always fuses
        assert!(fused.disasm().contains("AdvanceJump"), "AdvanceRaw.Jump must fuse:\n{}", fused.disasm());
    }

    #[test]
    fn fusion_is_idempotent() {
        let (_, fused) = fused_of("fn main() { let s = 0; for i in 0 .. 9 { s = s + i * i; } print(s); }");
        assert_eq!(fuse(fused.clone()).disasm(), fused.disasm());
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
        let (vm, fused) = fused_of(src);
        assert!(fused.code_len() < vm.code_len());
        let (p1, _, r1) = run(&vm).unwrap();
        let (p2, _, r2) = run(&fused).unwrap();
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
        let (vm, fused) = fused_of(src);
        assert_eq!(run(&vm).unwrap_err().to_string(), run(&fused).unwrap_err().to_string());
        // unbound variable read through a fused LoadScalar pair
        let src = "fn main() { let x = ghost + 1; print(x); }";
        let (vm, fused) = fused_of(src);
        assert_eq!(run(&vm).unwrap_err().to_string(), run(&fused).unwrap_err().to_string());
    }
}
