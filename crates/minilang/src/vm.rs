//! Bytecode VM for minilang — the production execution engine.
//!
//! [`compile`] lowers a program once into a flat instruction stream with
//! resolved variable slots and fuses its hottest digrams into
//! superinstructions ([`crate::fuse`]); [`VmProgram::run`] executes it on
//! a stack machine, and [`VmProgram::run_profiled`] is the same loop with
//! per-opcode counting compiled in. This one bytecode runs every
//! production execution: the profiled run behind [`profile`] (the
//! paper's one local gcov run) and the ground-truth simulator's replay in
//! `xflow-sim`.
//!
//! The tree-walking interpreter ([`crate::reference::run`]) is the
//! *reference* semantics, and [`crate::reference::compile_unfused`] the
//! base stream fusion rewrites. All three produce **bit-identical**
//! results, profiles, errors, and tracer event streams: every
//! op-accounting rule, evaluation order, RNG draw, and array base address
//! matches the reference (enforced by the equivalence suites in `tests/`
//! and the validator's `engines_agree` suite).
//!
//! The operand stack holds plain `f64`s: every expression the compiler
//! emits evaluates to a number, so arithmetic, stores, `Ret` and `Pop`
//! never see an array. Arrays travel only as call arguments: a bare name
//! in argument position compiles to `PushSlot`, which pushes the
//! slot's value (an array by reference, or a number) onto a separate
//! argument stack, and `Call` gathers its arguments in source order from
//! the two stacks, told which position is which by the call site's entry
//! in its function's `call_sites` table. The running frame's code, pc and
//! slots live in locals of the dispatch loop; `frames` holds only the
//! suspended callers.

use crate::ast::*;
use crate::runtime::{
    BranchStats, Heap, InputSpec, Lcg, Limits, LoopStats, NullTracer, OpCounts, Profile, RuntimeError, Tracer, Val,
};
use std::collections::HashMap;
use xflow_obs::Recorder;

/// A compiled program.
#[derive(Debug, Clone)]
pub struct VmProgram {
    pub(crate) funcs: Vec<VmFunc>,
    pub(crate) entry: usize,
    /// One past the largest statement id the code carries — sizes the
    /// dense profile accumulators once per run.
    pub(crate) n_stmts: usize,
}

#[derive(Debug, Clone)]
pub(crate) struct VmFunc {
    #[allow(dead_code)]
    pub(crate) name: String,
    pub(crate) n_params: usize,
    pub(crate) n_slots: usize,
    pub(crate) slot_names: Vec<String>,
    /// `input("NAME", default)` sites referenced by `Op::Input`.
    pub(crate) input_table: Vec<(String, f64)>,
    /// Per `Op::Call` site, in source order: whether each argument is a
    /// bare name taken from the argument stack (`true`) or a computed
    /// number taken from the operand stack.
    pub(crate) call_sites: Vec<Vec<bool>>,
    pub(crate) code: Vec<Op>,
}

/// VM instructions. The operand stack holds `f64`s; arithmetic ops pop
/// their operands right-then-left.
///
/// The variants after [`Op::Trap`] are *superinstructions*: fused digrams
/// the peephole pass in [`crate::fuse`] rewrites from the base stream.
/// The compiler never emits them directly; each executes its constituents'
/// exact semantics in one dispatch.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    /// Push a constant number.
    Num(f64),
    /// Push the slot's value (scalar or array) onto the argument stack —
    /// a bare name in call-argument position.
    PushSlot(u16),
    /// Push the slot's scalar value; errors on arrays / unset slots.
    LoadScalar(u16),
    /// Pop a value into a slot.
    StoreSlot(u16),
    /// Pop a length, allocate a zero-filled array into the slot.
    NewArray(u16),
    /// Push `len(slot)`.
    Len(u16),
    /// Push `input(name, default)` — index into the function's input table.
    Input(u16),
    /// Pop v, push 0/1 — *uncounted* boolean normalization for `&&`/`||`
    /// results (the reference returns 0/1 from its own checks without
    /// charging ops).
    NormBoolRaw,
    /// Pop index, push element; one load event.
    LoadElem(u16),
    /// Pop value then index; one store event.
    StoreElem(u16),
    /// Pop r, l; push `l op r`, counting flops/iops per context.
    Bin {
        op: BinOp,
        idx_ctx: bool,
    },
    /// Pop v; push `-v` (1 flop / 1 iop).
    Neg {
        idx_ctx: bool,
    },
    /// Pop v; push `!v` (1 iop).
    Not,
    /// Pop r, l; push 0/1 (1 flop).
    Cmp(CmpOp),
    /// Count one integer op (the `&&`/`||` connective).
    CountIop,
    /// One-flop builtins.
    Abs,
    Floor,
    Min,
    Max,
    /// Library builtins (lib event with the argument).
    Lib(Builtin),
    /// Pop condition; jump if zero.
    JumpIfZero(usize),
    /// Unconditional jump.
    Jump(usize),
    /// Statement prologue: tick, stmt_exec += 1, cur_stmt = id.
    StmtEnter(MStmtId),
    /// Set attribution without a tick (loop-head condition re-evaluation).
    SetCur(MStmtId),
    /// Loop entry profile.
    LoopEntry(MStmtId),
    /// Per-iteration (`for`): tick, iterations += 1, 2 iops to the loop.
    IterTick(MStmtId),
    /// Per-iteration (`while`): tick + iterations only — the reference
    /// charges loop bookkeeping iops for counted loops, not for `while`.
    IterTickWhile(MStmtId),
    /// Raw (uncounted) loop machinery: pop hi/cur, jump if cur >= hi.
    JumpIfGeRaw {
        cur: u16,
        hi: u16,
        target: usize,
    },
    /// Raw cursor advance: slot += step-slot.
    AdvanceRaw {
        cur: u16,
        step: u16,
    },
    /// Clamp the step slot to be strictly positive (mirrors the reference).
    ClampStepRaw(u16),
    /// Branch entry: size the arm-hit table.
    BranchEnter {
        stmt: MStmtId,
        arms: usize,
    },
    ArmHit {
        stmt: MStmtId,
        arm: usize,
    },
    ElseHit(MStmtId),
    BreakProfile(MStmtId),
    ContinueProfile(MStmtId),
    /// Gather the arguments `call_sites[site]` describes into a fresh
    /// frame and suspend the caller.
    Call {
        func: usize,
        site: usize,
    },
    /// Return: pop the optional return value (always present — compile
    /// pushes 0.0 for value-less returns), restore the caller frame.
    Ret,
    /// Pop and record a printed value.
    Print,
    /// Pop and discard.
    Pop,
    /// Raise the boxed error: a call site to an unknown function or with
    /// the wrong argument count. Compiled after the arguments, so the
    /// error surfaces exactly when the reference's call would fail.
    Trap(Box<RuntimeError>),

    // --- superinstructions (see `crate::fuse`) ---
    /// `LoadScalar(idx); LoadElem(arr)` — indexed read through a scalar.
    LoadScalarElem {
        idx: u16,
        arr: u16,
    },
    /// `StmtEnter(id); LoadScalar(slot)` — statement prologue + first read.
    StmtEnterLoad {
        id: MStmtId,
        slot: u16,
    },
    /// `LoadScalar(a); LoadScalar(b)` — two scalar reads.
    LoadScalar2 {
        a: u16,
        b: u16,
    },
    /// `LoadScalar(slot); Bin{op}` — load the right operand, apply.
    LoadScalarBin {
        slot: u16,
        op: BinOp,
        idx_ctx: bool,
    },
    /// `LoadElem(arr); Bin{op}` — element read feeding an operator.
    LoadElemBin {
        arr: u16,
        op: BinOp,
        idx_ctx: bool,
    },
    /// `Bin{op}; LoadScalar(slot)` — apply, then load the next operand.
    BinLoadScalar {
        op: BinOp,
        idx_ctx: bool,
        slot: u16,
    },
    /// `Bin{op1}; Bin{op2}` — two chained operators.
    Bin2 {
        op1: BinOp,
        ctx1: bool,
        op2: BinOp,
        ctx2: bool,
    },
    /// `StoreSlot(slot); StmtEnter(id)` — store + next statement prologue.
    StoreSlotEnter {
        slot: u16,
        id: MStmtId,
    },
    /// `Bin{op}; StoreSlot(slot)` — apply and store the result.
    BinStoreSlot {
        op: BinOp,
        idx_ctx: bool,
        slot: u16,
    },
    /// `Bin{op}; StoreElem(arr)` — apply and store into an element.
    BinStoreElem {
        op: BinOp,
        idx_ctx: bool,
        arr: u16,
    },
    /// `Bin{op}; LoadElem(arr)` — computed index feeding an element read.
    BinLoadElem {
        op: BinOp,
        idx_ctx: bool,
        arr: u16,
    },
    /// `Num(n); Bin{op}` — constant right operand, apply.
    NumBin {
        n: f64,
        op: BinOp,
        idx_ctx: bool,
    },
    /// `LoadScalar(slot); Num(n)` — scalar read + constant push.
    LoadScalarNum {
        slot: u16,
        n: f64,
    },
    /// `StoreElem(arr); StmtEnter(id)` — element store + next prologue.
    StoreElemEnter {
        arr: u16,
        id: MStmtId,
    },
    /// `AdvanceRaw{cur,step}; Jump(target)` — the counted-loop back edge.
    AdvanceJump {
        cur: u16,
        step: u16,
        target: usize,
    },
    /// `IterTick(id); LoadScalar(slot)` — iteration tick + cursor read.
    IterTickLoad {
        id: MStmtId,
        slot: u16,
    },
}

// One instruction stays three words: the dispatch loop streams through them.
const _: () = assert!(std::mem::size_of::<Op>() == 24);

/// Dense kind indices of the base opcodes the fusion layer composes —
/// tied to [`op_kind`] by `kind_constants_match_op_kind`.
pub(crate) mod kind {
    pub const NUM: usize = 0;
    pub const LOAD_SCALAR: usize = 2;
    pub const STORE_SLOT: usize = 3;
    pub const LOAD_ELEM: usize = 8;
    pub const STORE_ELEM: usize = 9;
    pub const BIN: usize = 10;
    pub const JUMP: usize = 21;
    pub const STMT_ENTER: usize = 22;
    pub const ITER_TICK: usize = 25;
    pub const ADVANCE_RAW: usize = 28;
}

// ---------------------------------------------------------------------------
// Instruction profiling
// ---------------------------------------------------------------------------

/// Number of distinct opcode kinds (one per `Op` variant).
pub const NUM_OP_KINDS: usize = 40;

/// Opcode kind names, indexed by the dense kind index `op_kind` yields
/// (declaration order of `Op`). These are the names `xflow profile`
/// reports and the `vm.op.*` / `vm.pair.*` counters use.
pub const OP_KIND_NAMES: [&str; NUM_OP_KINDS] = [
    "Num",
    "PushSlot",
    "LoadScalar",
    "StoreSlot",
    "NewArray",
    "Len",
    "Input",
    "NormBoolRaw",
    "LoadElem",
    "StoreElem",
    "Bin",
    "Neg",
    "Not",
    "Cmp",
    "CountIop",
    "Abs",
    "Floor",
    "Min",
    "Max",
    "Lib",
    "JumpIfZero",
    "Jump",
    "StmtEnter",
    "SetCur",
    "LoopEntry",
    "IterTick",
    "IterTickWhile",
    "JumpIfGeRaw",
    "AdvanceRaw",
    "ClampStepRaw",
    "BranchEnter",
    "ArmHit",
    "ElseHit",
    "BreakProfile",
    "ContinueProfile",
    "Call",
    "Ret",
    "Print",
    "Pop",
    "Trap",
];

/// Dense kind index of a *base* instruction (its [`Op`] variant).
/// Superinstructions have no kind of their own — they account to their
/// constituents' kinds via [`crate::fuse::fused_parts`].
fn op_kind(op: &Op) -> usize {
    match op {
        Op::Num(_) => 0,
        Op::PushSlot(_) => 1,
        Op::LoadScalar(_) => 2,
        Op::StoreSlot(_) => 3,
        Op::NewArray(_) => 4,
        Op::Len(_) => 5,
        Op::Input(_) => 6,
        Op::NormBoolRaw => 7,
        Op::LoadElem(_) => 8,
        Op::StoreElem(_) => 9,
        Op::Bin { .. } => 10,
        Op::Neg { .. } => 11,
        Op::Not => 12,
        Op::Cmp(_) => 13,
        Op::CountIop => 14,
        Op::Abs => 15,
        Op::Floor => 16,
        Op::Min => 17,
        Op::Max => 18,
        Op::Lib(_) => 19,
        Op::JumpIfZero(_) => 20,
        Op::Jump(_) => 21,
        Op::StmtEnter(_) => 22,
        Op::SetCur(_) => 23,
        Op::LoopEntry(_) => 24,
        Op::IterTick(_) => 25,
        Op::IterTickWhile(_) => 26,
        Op::JumpIfGeRaw { .. } => 27,
        Op::AdvanceRaw { .. } => 28,
        Op::ClampStepRaw(_) => 29,
        Op::BranchEnter { .. } => 30,
        Op::ArmHit { .. } => 31,
        Op::ElseHit(_) => 32,
        Op::BreakProfile(_) => 33,
        Op::ContinueProfile(_) => 34,
        Op::Call { .. } => 35,
        Op::Ret => 36,
        Op::Print => 37,
        Op::Pop => 38,
        Op::Trap(_) => 39,
        fused => unreachable!("op_kind on superinstruction {fused:?} — use fuse::fused_parts"),
    }
}

/// Dynamic instruction-frequency profile of one VM run: per-opcode
/// execution counts and instruction-pair (digram) counts over the
/// executed stream — the measurement half of profile-guided dispatch
/// reordering and superinstruction fusion.
///
/// Recording is branch-free and allocation-free: one dense counter bump
/// per opcode plus one per digram (the "no previous instruction" state is
/// an extra phantom row, not a branch). Produced by
/// [`VmProgram::run_profiled`].
#[derive(Debug, Clone, PartialEq)]
pub struct InstrProfile {
    /// Execution count per opcode kind, indexed like [`OP_KIND_NAMES`].
    ops: Vec<u64>,
    /// Digram counts, `(NUM_OP_KINDS + 1) × NUM_OP_KINDS`: row `prev`,
    /// column `next`. The phantom row `NUM_OP_KINDS` absorbs the first
    /// instruction (no predecessor) and is excluded from reports.
    pairs: Vec<u64>,
    /// Superinstruction dispatches, indexed like
    /// [`crate::fuse::FUSED_KIND_NAMES`]. A fused dispatch *also* bumps
    /// both constituent `ops`/`pairs` entries, so this is side-band data:
    /// the opcode stream above is always the unfused one.
    fused: Vec<u64>,
    prev: usize,
}

impl Default for InstrProfile {
    fn default() -> Self {
        Self::new()
    }
}

impl InstrProfile {
    /// Empty profile.
    pub fn new() -> Self {
        InstrProfile {
            ops: vec![0; NUM_OP_KINDS],
            pairs: vec![0; (NUM_OP_KINDS + 1) * NUM_OP_KINDS],
            fused: vec![0; crate::fuse::NUM_FUSED_KINDS],
            prev: NUM_OP_KINDS,
        }
    }

    #[inline(always)]
    fn note(&mut self, kind: usize) {
        self.ops[kind] += 1;
        self.pairs[self.prev * NUM_OP_KINDS + kind] += 1;
        self.prev = kind;
    }

    /// Total dynamic instructions executed, in *base-opcode* terms: a
    /// fused dispatch contributes both constituents, so this is invariant
    /// under fusion.
    pub fn total(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Total superinstruction dispatches (0 on an unfused program).
    pub fn fused_dispatches(&self) -> u64 {
        self.fused.iter().sum()
    }

    /// Superinstruction kinds ranked by dispatch count (descending, ties
    /// by name). Zero-count kinds are omitted; always empty unfused.
    pub fn ranked_fused(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<(&'static str, u64)> = crate::fuse::FUSED_KIND_NAMES
            .iter()
            .zip(self.fused.iter())
            .filter(|(_, n)| **n > 0)
            .map(|(k, n)| (*k, *n))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }

    /// True when the two profiles observed the same *base opcode stream*
    /// (identical per-opcode and digram counts), regardless of how many
    /// dispatches were fused. This is the fusion bit-identity contract:
    /// a fused and an unfused run of the same program must satisfy it
    /// even though their `fused` side-band (and thus `==`) differs.
    pub fn stream_eq(&self, other: &InstrProfile) -> bool {
        self.ops == other.ops && self.pairs == other.pairs
    }

    /// Execution count of one opcode kind by name (0 for unknown names).
    pub fn count_of(&self, name: &str) -> u64 {
        OP_KIND_NAMES.iter().position(|n| *n == name).map_or(0, |i| self.ops[i])
    }

    /// Executed opcode kinds ranked by count (descending, ties broken by
    /// name so the report is deterministic). Zero-count kinds are omitted.
    pub fn ranked_ops(&self) -> Vec<(&'static str, u64)> {
        let mut v: Vec<(&'static str, u64)> =
            OP_KIND_NAMES.iter().zip(self.ops.iter()).filter(|(_, n)| **n > 0).map(|(k, n)| (*k, *n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }

    /// Executed instruction pairs ranked by count (descending, ties by
    /// names) — the candidate list for superinstruction fusion. The
    /// phantom "start of stream" row is excluded.
    pub fn ranked_pairs(&self) -> Vec<((&'static str, &'static str), u64)> {
        let mut v: Vec<((&'static str, &'static str), u64)> = Vec::new();
        for (a, &name_a) in OP_KIND_NAMES.iter().enumerate() {
            for (b, &name_b) in OP_KIND_NAMES.iter().enumerate() {
                let n = self.pairs[a * NUM_OP_KINDS + b];
                if n > 0 {
                    v.push(((name_a, name_b), n));
                }
            }
        }
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Flush the profile into a recorder as monotonic counters:
    /// `vm.instructions`, `vm.op.<Kind>`, and `vm.pair.<A>.<B>` (nonzero
    /// entries only) — these are fusion-invariant. Superinstruction
    /// dispatches additionally flush as `vm.fused.<A>.<B>` side-band
    /// counters (absent entirely on unfused runs). Called once at end of
    /// run, so the per-name formatting here never touches the dispatch
    /// loop.
    pub fn flush_to<R: Recorder + ?Sized>(&self, rec: &R) {
        rec.add("vm.instructions", self.total());
        for (name, n) in self.ranked_ops() {
            rec.add(&format!("vm.op.{name}"), n);
        }
        for ((a, b), n) in self.ranked_pairs() {
            rec.add(&format!("vm.pair.{a}.{b}"), n);
        }
        for (name, n) in self.ranked_fused() {
            rec.add(&format!("vm.fused.{name}"), n);
        }
    }
}

/// Compile-time switch threading instruction profiling through the
/// dispatch loop. The `()` sink is the production default: `ENABLED` is
/// false, so the `op_kind` computation and counter bumps are statically
/// absent from the monomorphized loop — the same machine code the VM had
/// before profiling existed.
trait InstrSink {
    const ENABLED: bool;
    fn note_op(&mut self, kind: usize);
    fn note_fused(&mut self, fused_kind: usize);
}

impl InstrSink for () {
    const ENABLED: bool = false;
    #[inline(always)]
    fn note_op(&mut self, _kind: usize) {}
    #[inline(always)]
    fn note_fused(&mut self, _fused_kind: usize) {}
}

impl InstrSink for InstrProfile {
    const ENABLED: bool = true;
    #[inline(always)]
    fn note_op(&mut self, kind: usize) {
        self.note(kind);
    }
    #[inline(always)]
    fn note_fused(&mut self, fused_kind: usize) {
        self.fused[fused_kind] += 1;
    }
}

/// Compile a program to the production bytecode: the base instruction
/// stream, superinstruction-fused by [`crate::fuse`].
///
/// Only a missing `main` fails here. A call to an unknown function or with
/// the wrong argument count compiles to a trap op, which fails at run
/// time exactly where the reference's call does — dead call sites never
/// fail a run.
pub fn compile(prog: &Program) -> Result<VmProgram, RuntimeError> {
    lower(prog).map(crate::fuse::fuse)
}

/// Lower a program to the base (unfused) instruction stream — public only
/// as [`crate::reference::compile_unfused`].
pub(crate) fn lower(prog: &Program) -> Result<VmProgram, RuntimeError> {
    let fn_ids: HashMap<&str, usize> = prog.functions.iter().enumerate().map(|(i, f)| (f.name.as_str(), i)).collect();
    let entry = *fn_ids.get("main").ok_or_else(|| RuntimeError::UnknownFunction("main".into()))?;
    let mut funcs = Vec::with_capacity(prog.functions.len());
    let mut n_stmts = 0;
    for f in &prog.functions {
        let (func, n) = compile_fn(prog, f, &fn_ids)?;
        // every statement id an op carries is that of a compiled statement
        n_stmts = n_stmts.max(n);
        funcs.push(func);
    }
    Ok(VmProgram { funcs, entry, n_stmts })
}

struct FnCompiler<'p> {
    prog: &'p Program,
    fn_ids: &'p HashMap<&'p str, usize>,
    slots: HashMap<String, u16>,
    slot_names: Vec<String>,
    input_table: Vec<(String, f64)>,
    call_sites: Vec<Vec<bool>>,
    code: Vec<Op>,
    loops: Vec<LoopCtx>,
    /// One past the largest statement id compiled.
    n_stmts: usize,
}

struct LoopCtx {
    stmt: MStmtId,
    /// Jump targets to patch with the loop-exit pc.
    break_patches: Vec<usize>,
    /// Jump targets to patch with the continue pc.
    continue_patches: Vec<usize>,
}

fn compile_fn(prog: &Program, f: &Function, fn_ids: &HashMap<&str, usize>) -> Result<(VmFunc, usize), RuntimeError> {
    let mut c = FnCompiler {
        prog,
        fn_ids,
        slots: HashMap::new(),
        slot_names: Vec::new(),
        input_table: Vec::new(),
        call_sites: Vec::new(),
        code: Vec::new(),
        loops: Vec::new(),
        n_stmts: 0,
    };
    for p in &f.params {
        c.slot(p);
    }
    c.block(&f.body)?;
    // implicit `return 0.0`
    c.code.push(Op::Num(0.0));
    c.code.push(Op::Ret);
    let func = VmFunc {
        name: f.name.clone(),
        n_params: f.params.len(),
        n_slots: c.slot_names.len(),
        slot_names: c.slot_names,
        input_table: c.input_table,
        call_sites: c.call_sites,
        code: c.code,
    };
    Ok((func, c.n_stmts))
}

impl<'p> FnCompiler<'p> {
    fn slot(&mut self, name: &str) -> u16 {
        if let Some(&s) = self.slots.get(name) {
            return s;
        }
        let s = self.slot_names.len() as u16;
        self.slots.insert(name.to_string(), s);
        self.slot_names.push(name.to_string());
        s
    }

    fn hidden_slot(&mut self, tag: &str) -> u16 {
        let s = self.slot_names.len() as u16;
        self.slot_names.push(format!("<{tag}{}>", s));
        s
    }

    fn block(&mut self, b: &Block) -> Result<(), RuntimeError> {
        for s in &b.stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), RuntimeError> {
        self.n_stmts = self.n_stmts.max(s.id.0 as usize + 1);
        self.code.push(Op::StmtEnter(s.id));
        match &s.kind {
            StmtKind::LetScalar { name, init } | StmtKind::AssignScalar { name, value: init } => {
                self.expr(init, false)?;
                let slot = self.slot(name);
                self.code.push(Op::StoreSlot(slot));
            }
            StmtKind::LetArray { name, len } => {
                self.expr(len, true)?;
                let slot = self.slot(name);
                self.code.push(Op::NewArray(slot));
            }
            StmtKind::AssignIndex { name, index, value } => {
                // reference order: index, then value, then store
                self.expr(index, true)?;
                self.expr(value, false)?;
                let slot = self.slot(name);
                self.code.push(Op::StoreElem(slot));
            }
            StmtKind::UpdateIndex { name, index, op, value } => {
                // reference order: index, value, load old, apply, store.
                // Compile as: idx; value; idx2 = re-materialize? The
                // reference evaluates the index expression ONCE — mirror by
                // stashing it in a hidden slot.
                let idx_slot = self.hidden_slot("idx");
                let val_slot = self.hidden_slot("val");
                self.expr(index, true)?;
                self.code.push(Op::StoreSlot(idx_slot));
                self.expr(value, false)?;
                self.code.push(Op::StoreSlot(val_slot));
                let arr = self.slot(name);
                // old = a[idx]
                self.code.push(Op::LoadScalar(idx_slot));
                self.code.push(Op::LoadElem(arr));
                self.code.push(Op::LoadScalar(val_slot));
                self.code.push(Op::Bin { op: *op, idx_ctx: false });
                // store back: stack needs [idx, value]
                let res_slot = self.hidden_slot("res");
                self.code.push(Op::StoreSlot(res_slot));
                self.code.push(Op::LoadScalar(idx_slot));
                self.code.push(Op::LoadScalar(res_slot));
                self.code.push(Op::StoreElem(arr));
            }
            StmtKind::For { var, lo, hi, step, parallel: _, body } => {
                let cur = self.hidden_slot("cur");
                let hi_s = self.hidden_slot("hi");
                let step_s = self.hidden_slot("step");
                self.expr(lo, true)?;
                self.code.push(Op::StoreSlot(cur));
                self.expr(hi, true)?;
                self.code.push(Op::StoreSlot(hi_s));
                self.expr(step, true)?;
                self.code.push(Op::StoreSlot(step_s));
                self.code.push(Op::ClampStepRaw(step_s));
                self.code.push(Op::LoopEntry(s.id));
                let head = self.code.len();
                let exit_patch = self.code.len();
                self.code.push(Op::JumpIfGeRaw { cur, hi: hi_s, target: usize::MAX });
                self.code.push(Op::IterTick(s.id));
                let var_slot = self.slot(var);
                self.code.push(Op::LoadScalar(cur));
                self.code.push(Op::StoreSlot(var_slot));
                self.loops.push(LoopCtx { stmt: s.id, break_patches: vec![], continue_patches: vec![] });
                self.block(body)?;
                let ctx = self.loops.pop().expect("loop ctx");
                let continue_pc = self.code.len();
                self.code.push(Op::AdvanceRaw { cur, step: step_s });
                self.code.push(Op::Jump(head));
                let exit_pc = self.code.len();
                if let Op::JumpIfGeRaw { target, .. } = &mut self.code[exit_patch] {
                    *target = exit_pc;
                }
                for p in ctx.break_patches {
                    self.patch_jump(p, exit_pc);
                }
                for p in ctx.continue_patches {
                    self.patch_jump(p, continue_pc);
                }
            }
            StmtKind::While { cond, body } => {
                self.code.push(Op::LoopEntry(s.id));
                let head = self.code.len();
                // the reference re-attributes the condition to the while
                // statement on every check
                self.code.push(Op::SetCur(s.id));
                self.expr(cond, false)?;
                let exit_patch = self.code.len();
                self.code.push(Op::JumpIfZero(usize::MAX));
                self.code.push(Op::IterTickWhile(s.id));
                self.loops.push(LoopCtx { stmt: s.id, break_patches: vec![], continue_patches: vec![] });
                self.block(body)?;
                let ctx = self.loops.pop().expect("loop ctx");
                self.code.push(Op::Jump(head));
                let exit_pc = self.code.len();
                self.patch_jump(exit_patch, exit_pc);
                for p in ctx.break_patches {
                    self.patch_jump(p, exit_pc);
                }
                for p in ctx.continue_patches {
                    self.patch_jump(p, head);
                }
            }
            StmtKind::If { arms, else_body } => {
                self.code.push(Op::BranchEnter { stmt: s.id, arms: arms.len() });
                let mut end_patches = Vec::new();
                for (i, (cond, body)) in arms.iter().enumerate() {
                    self.code.push(Op::SetCur(s.id));
                    self.expr(cond, false)?;
                    let next_patch = self.code.len();
                    self.code.push(Op::JumpIfZero(usize::MAX));
                    self.code.push(Op::ArmHit { stmt: s.id, arm: i });
                    self.block(body)?;
                    end_patches.push(self.code.len());
                    self.code.push(Op::Jump(usize::MAX));
                    let next_pc = self.code.len();
                    self.patch_jump(next_patch, next_pc);
                }
                self.code.push(Op::ElseHit(s.id));
                if let Some(e) = else_body {
                    self.block(e)?;
                }
                let end = self.code.len();
                for p in end_patches {
                    self.patch_jump(p, end);
                }
            }
            StmtKind::CallProc { name, args } => {
                self.call(name, args)?;
                self.code.push(Op::Pop);
            }
            StmtKind::Return { value } => {
                match value {
                    Some(v) => self.expr(v, false)?,
                    None => self.code.push(Op::Num(0.0)),
                }
                self.code.push(Op::Ret);
            }
            StmtKind::Break => {
                let Some(ctx) = self.loops.last_mut() else {
                    // outside a loop: the reference treats it as a no-op
                    // flow that unwinds to the function end; approximate
                    // with a return of 0.0 — validated programs never hit
                    // this.
                    self.code.push(Op::Num(0.0));
                    self.code.push(Op::Ret);
                    return Ok(());
                };
                let loop_id = ctx.stmt;
                self.code.push(Op::BreakProfile(loop_id));
                let p = self.code.len();
                self.code.push(Op::Jump(usize::MAX));
                self.loops.last_mut().unwrap().break_patches.push(p);
            }
            StmtKind::Continue => {
                let Some(ctx) = self.loops.last_mut() else {
                    self.code.push(Op::Num(0.0));
                    self.code.push(Op::Ret);
                    return Ok(());
                };
                let loop_id = ctx.stmt;
                self.code.push(Op::ContinueProfile(loop_id));
                let p = self.code.len();
                self.code.push(Op::Jump(usize::MAX));
                self.loops.last_mut().unwrap().continue_patches.push(p);
            }
            StmtKind::Print { expr } => {
                self.expr(expr, false)?;
                self.code.push(Op::Print);
            }
        }
        Ok(())
    }

    fn patch_jump(&mut self, at: usize, target: usize) {
        match &mut self.code[at] {
            Op::Jump(t) | Op::JumpIfZero(t) => *t = target,
            Op::JumpIfGeRaw { target: t, .. } => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn call(&mut self, name: &str, args: &[Expr]) -> Result<(), RuntimeError> {
        // the reference evaluates the arguments before resolving the callee
        let mut by_ref = Vec::with_capacity(args.len());
        for a in args {
            match a {
                // bare names pass the value (array by reference)
                Expr::Var(v) => {
                    let slot = self.slot(v);
                    self.code.push(Op::PushSlot(slot));
                }
                other => self.expr(other, false)?,
            }
            by_ref.push(matches!(a, Expr::Var(_)));
        }
        let op = match self.fn_ids.get(name) {
            None => Op::Trap(Box::new(RuntimeError::UnknownFunction(name.to_string()))),
            Some(&func) => {
                let expected = self.prog.functions[func].params.len();
                if expected == args.len() {
                    self.call_sites.push(by_ref);
                    Op::Call { func, site: self.call_sites.len() - 1 }
                } else {
                    Op::Trap(Box::new(RuntimeError::ArityMismatch {
                        func: name.to_string(),
                        expected,
                        got: args.len(),
                    }))
                }
            }
        };
        self.code.push(op);
        Ok(())
    }

    fn expr(&mut self, e: &Expr, idx_ctx: bool) -> Result<(), RuntimeError> {
        match e {
            Expr::Num(n) => self.code.push(Op::Num(*n)),
            Expr::Var(v) => {
                let slot = self.slot(v);
                self.code.push(Op::LoadScalar(slot));
            }
            Expr::Index(a, idx) => {
                self.expr(idx, true)?;
                let slot = self.slot(a);
                self.code.push(Op::LoadElem(slot));
            }
            Expr::Len(a) => {
                let slot = self.slot(a);
                self.code.push(Op::Len(slot));
            }
            Expr::Input(name, default) => {
                let idx = self.input_table.len() as u16;
                self.input_table.push((name.clone(), *default));
                self.code.push(Op::Input(idx));
            }
            Expr::Bin(l, op, r) => {
                self.expr(l, idx_ctx)?;
                self.expr(r, idx_ctx)?;
                self.code.push(Op::Bin { op: *op, idx_ctx });
            }
            Expr::Neg(i) => {
                self.expr(i, idx_ctx)?;
                self.code.push(Op::Neg { idx_ctx });
            }
            Expr::Cmp(l, op, r) => {
                self.expr(l, idx_ctx)?;
                self.expr(r, idx_ctx)?;
                self.code.push(Op::Cmp(*op));
            }
            Expr::And(l, r) => {
                // reference: eval lhs, count 1 iop, short-circuit
                self.expr(l, idx_ctx)?;
                self.code.push(Op::CountIop);
                let short = self.code.len();
                self.code.push(Op::JumpIfZero(usize::MAX));
                self.expr(r, idx_ctx)?;
                self.code.push(Op::NormBoolRaw);
                let end = self.code.len();
                self.code.push(Op::Jump(usize::MAX));
                let short_pc = self.code.len();
                self.code.push(Op::Num(0.0));
                let end_pc = self.code.len();
                self.patch_jump(short, short_pc);
                self.patch_jump(end, end_pc);
            }
            Expr::Or(l, r) => {
                self.expr(l, idx_ctx)?;
                self.code.push(Op::CountIop);
                // jump to "true" if lhs non-zero: invert via JumpIfZero to rhs
                let to_rhs = self.code.len();
                self.code.push(Op::JumpIfZero(usize::MAX));
                self.code.push(Op::Num(1.0));
                let end = self.code.len();
                self.code.push(Op::Jump(usize::MAX));
                let rhs_pc = self.code.len();
                self.patch_jump(to_rhs, rhs_pc);
                self.expr(r, idx_ctx)?;
                self.code.push(Op::NormBoolRaw);
                let end_pc = self.code.len();
                self.patch_jump(end, end_pc);
            }
            Expr::Not(i) => {
                self.expr(i, idx_ctx)?;
                self.code.push(Op::Not);
            }
            Expr::Call(b, args) => {
                for a in args.iter().take(2) {
                    self.expr(a, idx_ctx)?;
                }
                match b {
                    Builtin::Abs => self.code.push(Op::Abs),
                    Builtin::Floor => self.code.push(Op::Floor),
                    Builtin::Min => self.code.push(Op::Min),
                    Builtin::Max => self.code.push(Op::Max),
                    lib => {
                        if lib == &Builtin::Rnd {
                            // rnd() takes no arguments; nothing on the stack
                        }
                        self.code.push(Op::Lib(*lib));
                    }
                }
            }
            Expr::CallFn(name, args) => self.call(name, args)?,
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Library-counter names, indexed by the dense slot [`Op::Lib`] charges.
const LIB_COUNTER_NAMES: [&str; 7] = ["rand", "exp", "log", "sqrt", "sin", "cos", "pow"];

/// Dense profile accumulators — the same [`Profile`] the tree-walker
/// builds, accumulated as statement-id-indexed vectors on the dispatch
/// hot path and converted to the public `HashMap` shape once at end of
/// run. At evaluation scale the interpreter fires tens of millions of
/// profile events; one hash upsert per event used to dominate the
/// dispatch loop. Entry presence is preserved exactly: every upsert in
/// the old code incremented at least one counter, so "accumulator is
/// non-default" is precisely "the old code created this entry".
struct DenseProfile {
    exec: Vec<u64>,
    ops: Vec<OpCounts>,
    loops: Vec<LoopStats>,
    branches: Vec<BranchStats>,
    lib_calls: [u64; LIB_COUNTER_NAMES.len()],
    printed: Vec<f64>,
}

impl DenseProfile {
    /// Accumulators for statement ids `0..n_stmts` — every id the compiled
    /// code carries, so the dispatch loop indexes them directly.
    fn new(n_stmts: usize) -> Self {
        DenseProfile {
            exec: vec![0; n_stmts],
            ops: vec![OpCounts::default(); n_stmts],
            loops: vec![LoopStats::default(); n_stmts],
            branches: vec![BranchStats::default(); n_stmts],
            lib_calls: [0; LIB_COUNTER_NAMES.len()],
            printed: Vec::new(),
        }
    }

    /// One pass into the public `HashMap` shape, off the hot path.
    fn into_profile(self) -> Profile {
        let mut p = Profile { printed: self.printed, ..Profile::default() };
        for (i, &n) in self.exec.iter().enumerate() {
            if n > 0 {
                p.stmt_exec.insert(MStmtId(i as u32), n);
            }
        }
        for (i, &c) in self.ops.iter().enumerate() {
            if c != OpCounts::default() {
                p.stmt_ops.insert(MStmtId(i as u32), c);
            }
        }
        for (i, &l) in self.loops.iter().enumerate() {
            if l != LoopStats::default() {
                p.loops.insert(MStmtId(i as u32), l);
            }
        }
        for (i, b) in self.branches.into_iter().enumerate() {
            if b != BranchStats::default() {
                p.branches.insert(MStmtId(i as u32), b);
            }
        }
        for (i, &n) in self.lib_calls.iter().enumerate() {
            if n > 0 {
                p.lib_calls.insert(LIB_COUNTER_NAMES[i].to_string(), n);
            }
        }
        p
    }
}

/// A suspended caller: where it resumes, and the attribution its call
/// site restores.
struct Frame<'v> {
    func: &'v VmFunc,
    pc: usize,
    slots: Vec<Val>,
    saved_cur: MStmtId,
}

/// Profile a program without tracing — the "local profiled run" whose
/// branch and loop statistics the translator folds into the skeleton.
/// Runs the production bytecode with default limits and
/// [`crate::DEFAULT_SEED`].
pub fn profile(prog: &Program, inputs: &InputSpec) -> Result<Profile, RuntimeError> {
    profile_seeded(prog, inputs, crate::DEFAULT_SEED)
}

/// [`profile`] with an explicit `rnd()` seed.
pub fn profile_seeded(prog: &Program, inputs: &InputSpec, seed: u64) -> Result<Profile, RuntimeError> {
    let (p, _, _) = compile(prog)?.run(inputs, NullTracer, Limits::default(), seed)?;
    Ok(p)
}

impl VmProgram {
    /// Run the program with a tracer, execution limits and an explicit
    /// `rnd()` seed (see [`crate::DEFAULT_SEED`] for the cross-engine
    /// determinism contract); returns the profile, the tracer, and main's
    /// return value. [`crate::reference::run`] is the reference engine.
    pub fn run<T: Tracer>(
        &self,
        inputs: &InputSpec,
        tracer: T,
        limits: Limits,
        seed: u64,
    ) -> Result<(Profile, T, f64), RuntimeError> {
        run_inner(self, inputs, tracer, limits, seed, &mut ())
    }

    /// [`VmProgram::run`] with instruction profiling compiled in: returns
    /// the per-opcode / per-digram [`InstrProfile`] alongside the ordinary
    /// results. The run itself is bit-identical to the unprofiled one
    /// (profiling only counts, it never changes semantics).
    pub fn run_profiled<T: Tracer>(
        &self,
        inputs: &InputSpec,
        tracer: T,
        limits: Limits,
        seed: u64,
    ) -> Result<(Profile, T, f64, InstrProfile), RuntimeError> {
        let mut iprof = InstrProfile::new();
        let (profile, tracer, ret) = run_inner(self, inputs, tracer, limits, seed, &mut iprof)?;
        Ok((profile, tracer, ret, iprof))
    }
}

fn run_inner<T: Tracer, S: InstrSink>(
    vm: &VmProgram,
    inputs: &InputSpec,
    mut tracer: T,
    limits: Limits,
    seed: u64,
    sink: &mut S,
) -> Result<(Profile, T, f64), RuntimeError> {
    let mut profile = DenseProfile::new(vm.n_stmts);
    let mut rng = Lcg(seed);
    let mut heap = Heap::default();
    let mut steps: u64 = 0;
    let mut cur_stmt = MStmtId(0);
    let mut stack: Vec<f64> = Vec::with_capacity(64);
    let mut arg_stack: Vec<Val> = Vec::new();
    let mut frames: Vec<Frame> = Vec::new();
    // the running frame
    let mut func = &vm.funcs[vm.entry];
    let mut code: &[Op] = &func.code;
    let mut pc = 0;
    let mut slots = unset_slots(func.n_slots);

    macro_rules! pop {
        () => {
            stack.pop().expect("stack underflow")
        };
    }

    // Shared opcode bodies. Base arms and the superinstruction arms that
    // fuse them (`crate::fuse`) expand the same macros, so a fused
    // dispatch produces bit-identical profile entries, tracer events,
    // errors, and RNG draws to its unfused constituent sequence. They
    // capture the running frame (`func`, `slots`) and the run state
    // (`stack`, `profile`, `tracer`, `cur_stmt`, `steps`, `limits`).

    /// `LoadScalar` body: the slot's scalar value, with the exact
    /// unbound/not-a-scalar error precedence.
    macro_rules! scalar_of {
        ($s:expr) => {{
            let s = $s as usize;
            match &slots[s] {
                Val::Num(v) if !is_unset_num(*v) => *v,
                Val::Num(_) => return Err(RuntimeError::UnboundVariable(func.slot_names[s].clone())),
                Val::Arr(_) => return Err(RuntimeError::NotAScalar(func.slot_names[s].clone())),
            }
        }};
    }

    /// The slot's array, with the exact unbound/not-an-array precedence.
    macro_rules! arr_of {
        ($s:expr) => {
            match &slots[$s] {
                Val::Arr(a) => a,
                Val::Num(x) if is_unset_num(*x) => {
                    return Err(RuntimeError::UnboundVariable(func.slot_names[$s].clone()))
                }
                Val::Num(_) => return Err(RuntimeError::NotAnArray(func.slot_names[$s].clone())),
            }
        };
    }

    /// `LoadElem` body after the index is popped: bounds-checked element
    /// read, one load event to the profile and tracer.
    macro_rules! elem_load {
        ($s:expr, $idx:expr) => {{
            let s = $s as usize;
            let idx: f64 = $idx;
            let a = arr_of!(s);
            let data = a.data.borrow();
            let i = idx as usize;
            if idx < 0.0 || i >= data.len() {
                return Err(RuntimeError::IndexOutOfBounds {
                    array: func.slot_names[s].clone(),
                    index: idx,
                    len: data.len(),
                });
            }
            profile.ops[cur_stmt.0 as usize].loads += 1;
            tracer.load(cur_stmt, a.base + (i as u64) * 8);
            data[i]
        }};
    }

    /// `StoreElem` body after value and index are popped: bounds-checked
    /// element write, one store event to the profile and tracer.
    macro_rules! elem_store {
        ($s:expr, $idx:expr, $value:expr) => {{
            let s = $s as usize;
            let idx: f64 = $idx;
            let value: f64 = $value;
            let a = arr_of!(s);
            let mut data = a.data.borrow_mut();
            let i = idx as usize;
            if idx < 0.0 || i >= data.len() {
                return Err(RuntimeError::IndexOutOfBounds {
                    array: func.slot_names[s].clone(),
                    index: idx,
                    len: data.len(),
                });
            }
            data[i] = value;
            profile.ops[cur_stmt.0 as usize].stores += 1;
            tracer.store(cur_stmt, a.base + (i as u64) * 8);
        }};
    }

    /// `Bin` body after both operands are popped: count per context,
    /// apply, yield the result.
    macro_rules! bin_apply {
        ($op:expr, $idx_ctx:expr, $l:expr, $r:expr) => {{
            let l: f64 = $l;
            let r: f64 = $r;
            let op: BinOp = $op;
            let (flops, iops, divs) = if $idx_ctx {
                (0, 1, 0)
            } else if op == BinOp::Div {
                (1, 0, 1)
            } else {
                (1, 0, 0)
            };
            count(&mut profile, &mut tracer, cur_stmt, flops, iops, divs);
            match op {
                BinOp::Add => l + r,
                BinOp::Sub => l - r,
                BinOp::Mul => l * r,
                BinOp::Div => l / r,
                BinOp::Mod => l % r,
            }
        }};
    }

    /// Step-limit tick shared by statement and iteration prologues.
    macro_rules! tick {
        () => {
            steps += 1;
            if steps > limits.max_steps {
                return Err(RuntimeError::StepLimitExceeded(limits.max_steps));
            }
        };
    }

    /// `StmtEnter` body: step-limit tick, attribution, execution count.
    macro_rules! stmt_enter {
        ($id:expr) => {{
            let id: MStmtId = $id;
            tick!();
            cur_stmt = id;
            profile.exec[id.0 as usize] += 1;
        }};
    }

    /// `IterTick` body (counted loops): step-limit tick, iteration count,
    /// two bookkeeping iops charged to the loop statement.
    macro_rules! iter_tick {
        ($id:expr) => {{
            let id: MStmtId = $id;
            tick!();
            profile.loops[id.0 as usize].iterations += 1;
            count(&mut profile, &mut tracer, id, 0, 2, 0);
        }};
    }

    loop {
        debug_assert!(pc < code.len());
        let op = &code[pc];
        pc += 1;
        if S::ENABLED {
            // Superinstructions account to their constituent opcodes (in
            // order), so the observed opcode/digram stream — and every
            // `vm.op.*` / `vm.pair.*` counter — is identical to the
            // unfused VM's. Fused dispatches are counted side-band.
            match crate::fuse::fused_parts(op) {
                Some((f, a, b)) => {
                    sink.note_fused(f);
                    sink.note_op(a);
                    sink.note_op(b);
                }
                None => sink.note_op(op_kind(op)),
            }
        }
        match op {
            // Superinstruction arms lead the dispatch: after fusion they
            // are the hottest opcodes (arms are listed in the committed
            // table's frequency order, `fuse::FUSED_KIND_NAMES`). Each
            // expands its constituents' shared-body macros in sequence.
            Op::LoadScalarElem { idx, arr } => {
                let i = scalar_of!(*idx);
                let v = elem_load!(*arr, i);
                stack.push(v);
            }
            Op::StmtEnterLoad { id, slot } => {
                stmt_enter!(*id);
                let v = scalar_of!(*slot);
                stack.push(v);
            }
            Op::LoadScalar2 { a, b } => {
                let va = scalar_of!(*a);
                stack.push(va);
                let vb = scalar_of!(*b);
                stack.push(vb);
            }
            Op::LoadScalarBin { slot, op, idx_ctx } => {
                let r = scalar_of!(*slot);
                let l = pop!();
                let v = bin_apply!(*op, *idx_ctx, l, r);
                stack.push(v);
            }
            Op::LoadElemBin { arr, op, idx_ctx } => {
                let idx = pop!();
                let r = elem_load!(*arr, idx);
                let l = pop!();
                let v = bin_apply!(*op, *idx_ctx, l, r);
                stack.push(v);
            }
            Op::BinLoadScalar { op, idx_ctx, slot } => {
                let r = pop!();
                let l = pop!();
                let v = bin_apply!(*op, *idx_ctx, l, r);
                stack.push(v);
                let s2 = scalar_of!(*slot);
                stack.push(s2);
            }
            Op::Bin2 { op1, ctx1, op2, ctx2 } => {
                let r = pop!();
                let l = pop!();
                let v1 = bin_apply!(*op1, *ctx1, l, r);
                let l2 = pop!();
                let v2 = bin_apply!(*op2, *ctx2, l2, v1);
                stack.push(v2);
            }
            Op::StoreSlotEnter { slot, id } => {
                slots[*slot as usize] = Val::Num(pop!());
                stmt_enter!(*id);
            }
            Op::BinStoreSlot { op, idx_ctx, slot } => {
                let r = pop!();
                let l = pop!();
                let v = bin_apply!(*op, *idx_ctx, l, r);
                slots[*slot as usize] = Val::Num(v);
            }
            Op::BinStoreElem { op, idx_ctx, arr } => {
                let r = pop!();
                let l = pop!();
                let v = bin_apply!(*op, *idx_ctx, l, r);
                let idx = pop!();
                elem_store!(*arr, idx, v);
            }
            Op::BinLoadElem { op, idx_ctx, arr } => {
                let r = pop!();
                let l = pop!();
                let idx = bin_apply!(*op, *idx_ctx, l, r);
                let v = elem_load!(*arr, idx);
                stack.push(v);
            }
            Op::NumBin { n, op, idx_ctx } => {
                let l = pop!();
                let v = bin_apply!(*op, *idx_ctx, l, *n);
                stack.push(v);
            }
            Op::LoadScalarNum { slot, n } => {
                let v = scalar_of!(*slot);
                stack.push(v);
                stack.push(*n);
            }
            Op::StoreElemEnter { arr, id } => {
                let value = pop!();
                let idx = pop!();
                elem_store!(*arr, idx, value);
                stmt_enter!(*id);
            }
            Op::AdvanceJump { cur, step, target } => {
                let c = raw_num(&slots[*cur as usize]);
                let st = raw_num(&slots[*step as usize]);
                slots[*cur as usize] = Val::Num(c + st);
                pc = *target;
            }
            Op::IterTickLoad { id, slot } => {
                iter_tick!(*id);
                let v = scalar_of!(*slot);
                stack.push(v);
            }

            Op::Num(n) => stack.push(*n),
            Op::PushSlot(s) => {
                let v = &slots[*s as usize];
                if is_unset(v) {
                    return Err(RuntimeError::UnboundVariable(func.slot_names[*s as usize].clone()));
                }
                arg_stack.push(v.clone());
            }
            Op::LoadScalar(s) => {
                let v = scalar_of!(*s);
                stack.push(v);
            }
            Op::StoreSlot(s) => slots[*s as usize] = Val::Num(pop!()),
            Op::NewArray(s) => {
                let l = pop!();
                slots[*s as usize] = Val::Arr(heap.alloc(&func.slot_names[*s as usize], l)?);
            }
            Op::Len(s) => {
                let n = arr_of!(*s as usize).data.borrow().len();
                stack.push(n as f64);
            }
            Op::Input(idx) => {
                let (name, default) = &func.input_table[*idx as usize];
                stack.push(inputs.get_or(name, *default));
            }
            Op::LoadElem(s) => {
                let idx = pop!();
                let v = elem_load!(*s, idx);
                stack.push(v);
            }
            Op::StoreElem(s) => {
                let value = pop!();
                let idx = pop!();
                elem_store!(*s, idx, value);
            }
            Op::Bin { op, idx_ctx } => {
                let r = pop!();
                let l = pop!();
                let v = bin_apply!(*op, *idx_ctx, l, r);
                stack.push(v);
            }
            Op::Neg { idx_ctx } => {
                let v = pop!();
                if *idx_ctx {
                    count(&mut profile, &mut tracer, cur_stmt, 0, 1, 0);
                } else {
                    count(&mut profile, &mut tracer, cur_stmt, 1, 0, 0);
                }
                stack.push(-v);
            }
            Op::Not => {
                let v = pop!();
                count(&mut profile, &mut tracer, cur_stmt, 0, 1, 0);
                stack.push(if v == 0.0 { 1.0 } else { 0.0 });
            }
            Op::NormBoolRaw => {
                let v = pop!();
                stack.push(if v != 0.0 { 1.0 } else { 0.0 });
            }
            Op::Cmp(op) => {
                let r = pop!();
                let l = pop!();
                count(&mut profile, &mut tracer, cur_stmt, 1, 0, 0);
                stack.push(if op.apply(l, r) { 1.0 } else { 0.0 });
            }
            Op::CountIop => {
                count(&mut profile, &mut tracer, cur_stmt, 0, 1, 0);
            }
            Op::Abs => {
                let v = pop!();
                count(&mut profile, &mut tracer, cur_stmt, 1, 0, 0);
                stack.push(v.abs());
            }
            Op::Floor => {
                let v = pop!();
                count(&mut profile, &mut tracer, cur_stmt, 1, 0, 0);
                stack.push(v.floor());
            }
            Op::Min => {
                let b = pop!();
                let a = pop!();
                count(&mut profile, &mut tracer, cur_stmt, 1, 0, 0);
                stack.push(a.min(b));
            }
            Op::Max => {
                let b = pop!();
                let a = pop!();
                count(&mut profile, &mut tracer, cur_stmt, 1, 0, 0);
                stack.push(a.max(b));
            }
            Op::Lib(b) => {
                // slot indices match LIB_COUNTER_NAMES — one dense counter
                // bump instead of a String-keyed upsert per call
                let (v, slot, arg) = match b {
                    Builtin::Rnd => (rng.next_f64(), 0, 0.0),
                    Builtin::Exp => {
                        let a = pop!();
                        (a.exp(), 1, a)
                    }
                    Builtin::Log => {
                        let a = pop!();
                        (a.max(f64::MIN_POSITIVE).ln(), 2, a)
                    }
                    Builtin::Sqrt => {
                        let a = pop!();
                        (a.abs().sqrt(), 3, a)
                    }
                    Builtin::Sin => {
                        let a = pop!();
                        (a.sin(), 4, a)
                    }
                    Builtin::Cos => {
                        let a = pop!();
                        (a.cos(), 5, a)
                    }
                    Builtin::Pow => {
                        let b2 = pop!();
                        let a = pop!();
                        (a.powf(b2), 6, a)
                    }
                    other => unreachable!("{other:?} is not a lib builtin"),
                };
                profile.lib_calls[slot] += 1;
                tracer.lib_call(cur_stmt, LIB_COUNTER_NAMES[slot], arg);
                stack.push(v);
            }
            Op::JumpIfZero(t) => {
                if pop!() == 0.0 {
                    pc = *t;
                }
            }
            Op::Jump(t) => pc = *t,
            Op::StmtEnter(id) => stmt_enter!(*id),
            Op::SetCur(id) => cur_stmt = *id,
            Op::LoopEntry(id) => profile.loops[id.0 as usize].entries += 1,
            Op::IterTick(id) => iter_tick!(*id),
            Op::IterTickWhile(id) => {
                tick!();
                profile.loops[id.0 as usize].iterations += 1;
            }
            Op::JumpIfGeRaw { cur, hi, target } => {
                let c = raw_num(&slots[*cur as usize]);
                let h = raw_num(&slots[*hi as usize]);
                // exits on NaN too — a poisoned counter must not spin the loop
                if c.partial_cmp(&h) != Some(std::cmp::Ordering::Less) {
                    pc = *target;
                }
            }
            Op::AdvanceRaw { cur, step } => {
                let c = raw_num(&slots[*cur as usize]);
                let st = raw_num(&slots[*step as usize]);
                slots[*cur as usize] = Val::Num(c + st);
            }
            Op::ClampStepRaw(s) => {
                let v = raw_num(&slots[*s as usize]);
                slots[*s as usize] = Val::Num(v.max(f64::MIN_POSITIVE));
            }
            Op::BranchEnter { stmt, arms } => {
                let b = &mut profile.branches[stmt.0 as usize];
                if b.arm_hits.len() < *arms {
                    b.arm_hits.resize(*arms, 0);
                }
            }
            Op::ArmHit { stmt, arm } => profile.branches[stmt.0 as usize].arm_hits[*arm] += 1,
            Op::ElseHit(stmt) => profile.branches[stmt.0 as usize].else_hits += 1,
            Op::BreakProfile(id) => profile.loops[id.0 as usize].breaks += 1,
            Op::ContinueProfile(id) => profile.loops[id.0 as usize].continues += 1,
            Op::Call { func: callee, site } => {
                // the running frame plus the suspended callers
                if frames.len() as u32 + 1 >= limits.max_depth {
                    return Err(RuntimeError::RecursionLimitExceeded(limits.max_depth));
                }
                let target = &vm.funcs[*callee];
                let by_ref = &func.call_sites[*site];
                debug_assert_eq!(by_ref.len(), target.n_params);
                let n_ref = by_ref.iter().filter(|r| **r).count();
                let mut refs = arg_stack.drain(arg_stack.len() - n_ref..);
                let mut nums = stack.drain(stack.len() - (by_ref.len() - n_ref)..);
                let mut callee_slots = unset_slots(target.n_slots);
                for (slot, &r) in callee_slots.iter_mut().zip(by_ref) {
                    *slot = if r { refs.next() } else { nums.next().map(Val::Num) }.expect("call argument");
                }
                let caller_slots = std::mem::replace(&mut slots, callee_slots);
                frames.push(Frame { func, pc, slots: caller_slots, saved_cur: cur_stmt });
                func = target;
                code = &func.code;
                pc = 0;
            }
            Op::Ret => match frames.pop() {
                // the return value stays on the stack for the caller
                Some(caller) => {
                    func = caller.func;
                    code = &func.code;
                    pc = caller.pc;
                    slots = caller.slots;
                    cur_stmt = caller.saved_cur;
                }
                None => return Ok((profile.into_profile(), tracer, pop!())),
            },
            Op::Print => {
                let v = pop!();
                profile.printed.push(v);
            }
            Op::Pop => {
                stack.pop();
            }
            Op::Trap(e) => return Err((**e).clone()),
        }
    }
}

/// Saved/restored attribution: the reference restores `cur_stmt` after a
/// user call *in expression position*; statement calls re-enter on the next
/// statement anyway, so restoring unconditionally matches both.
fn count<T: Tracer>(profile: &mut DenseProfile, tracer: &mut T, stmt: MStmtId, flops: u32, iops: u32, divs: u32) {
    let c = &mut profile.ops[stmt.0 as usize];
    c.flops += flops as u64;
    c.iops += iops as u64;
    c.divs += divs as u64;
    tracer.ops(stmt, flops, iops, divs);
}

fn raw_num(v: &Val) -> f64 {
    match v {
        Val::Num(n) => *n,
        Val::Arr(_) => f64::NAN,
    }
}

fn unset_slots(n: usize) -> Vec<Val> {
    vec![Val::Num(UNSET); n]
}

/// Sentinel NaN marking an unset slot (distinct from computed NaNs only in
/// bit pattern; computed NaNs in user data are astronomically unlikely to
/// collide and the reference would have produced them identically anyway).
const UNSET: f64 = f64::from_bits(0x7FF8_DEAD_BEEF_0001);

fn is_unset_num(v: f64) -> bool {
    v.to_bits() == UNSET.to_bits()
}

fn is_unset(v: &Val) -> bool {
    matches!(v, Val::Num(n) if is_unset_num(*n))
}

impl VmProgram {
    /// Human-readable disassembly (debugging aid; stable enough for tests).
    pub fn disasm(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for f in &self.funcs {
            let _ = writeln!(out, "fn {} (params {}, slots {}):", f.name, f.n_params, f.n_slots);
            for (pc, op) in f.code.iter().enumerate() {
                let _ = writeln!(out, "  {pc:>4}: {op:?}");
            }
        }
        out
    }

    /// Total instruction count across all functions.
    pub fn code_len(&self) -> usize {
        self.funcs.iter().map(|f| f.code.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn run_with(
        vm: &VmProgram,
        inputs: &InputSpec,
        limits: Limits,
    ) -> Result<(Profile, NullTracer, f64), RuntimeError> {
        vm.run(inputs, NullTracer, limits, crate::DEFAULT_SEED)
    }

    #[test]
    fn compile_resolves_slots_and_entry() {
        let p = parse("fn main() { let x = 1; let y = x + 2; print(y); }").unwrap();
        let vm = compile(&p).unwrap();
        let d = vm.disasm();
        assert!(d.contains("fn main"), "{d}");
        assert!(d.contains("StoreSlot"), "{d}");
        assert!(vm.code_len() > 5);
    }

    #[test]
    fn compile_rejects_missing_main() {
        // the parser rejects such programs; build one by renaming `main`
        let mut p = parse("fn main() { }").unwrap();
        p.functions[0].name = "helper".into();
        assert!(matches!(compile(&p), Err(RuntimeError::UnknownFunction(n)) if n == "main"));
    }

    #[test]
    fn unknown_function_fails_at_call_time() {
        let p = parse("fn main() { ghost(); }").unwrap();
        let vm = compile(&p).expect("unknown callees compile to a trap");
        let err = run_with(&vm, &InputSpec::new(), Limits::default()).unwrap_err();
        assert_eq!(err, RuntimeError::UnknownFunction("ghost".into()));
    }

    #[test]
    fn arity_mismatch_fails_at_call_time() {
        let p = parse("fn main() { f(1, 2); } fn f(x) { }").unwrap();
        let vm = compile(&p).expect("arity mismatches compile to a trap");
        let err = run_with(&vm, &InputSpec::new(), Limits::default()).unwrap_err();
        assert_eq!(err, RuntimeError::ArityMismatch { func: "f".into(), expected: 1, got: 2 });
    }

    #[test]
    fn step_limit_enforced() {
        let p = parse("fn main() { while 1 > 0 { let x = 1; } }").unwrap();
        let vm = compile(&p).unwrap();
        let err = run_with(&vm, &InputSpec::new(), Limits { max_steps: 5_000, max_depth: 8 }).unwrap_err();
        assert!(matches!(err, RuntimeError::StepLimitExceeded(_)));
    }

    #[test]
    fn recursion_limit_enforced() {
        let p = parse("fn main() { f(); } fn f() { f(); }").unwrap();
        let vm = compile(&p).unwrap();
        let err = run_with(&vm, &InputSpec::new(), Limits { max_steps: 1_000_000, max_depth: 16 }).unwrap_err();
        assert!(matches!(err, RuntimeError::RecursionLimitExceeded(16)));
    }

    #[test]
    fn unset_slot_reads_error_with_the_variable_name() {
        let p = parse("fn main() { print(mystery); }").unwrap();
        let vm = compile(&p).unwrap();
        match run_with(&vm, &InputSpec::new(), Limits::default()) {
            Err(RuntimeError::UnboundVariable(n)) => assert_eq!(n, "mystery"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn return_value_propagates() {
        let p = parse("fn main() { return 6 * 7; }").unwrap();
        let vm = compile(&p).unwrap();
        let (_, _, r) = run_with(&vm, &InputSpec::new(), Limits::default()).unwrap();
        assert_eq!(r, 42.0);
    }

    #[test]
    fn profiled_run_is_bit_identical_and_counts_consistently() {
        let p = parse(
            r#"
fn main() {
    let n = input("N", 32);
    let a = zeros(n);
    for i in 0 .. n { a[i] = rnd() * 2.0; }
    let s = 0;
    for i in 0 .. n {
        if a[i] > 1.0 { s = s + a[i]; } else { s = s - 1; }
    }
    print(s);
}
"#,
        )
        .unwrap();
        let vm = compile(&p).unwrap();
        let spec = InputSpec::new();
        let (prof_a, _, ret_a) = run_with(&vm, &spec, Limits::default()).unwrap();
        let (prof_b, _, ret_b, iprof) =
            vm.run_profiled(&spec, NullTracer, Limits::default(), crate::DEFAULT_SEED).unwrap();
        assert_eq!(ret_a.to_bits(), ret_b.to_bits());
        assert_eq!(prof_a.printed, prof_b.printed);
        assert_eq!(prof_a.stmt_ops, prof_b.stmt_ops);
        // opcode totals tie out against the semantic profile
        let total = iprof.total();
        assert!(total > 0);
        assert_eq!(iprof.ranked_ops().iter().map(|(_, n)| n).sum::<u64>(), total);
        // every instruction except the first has a predecessor
        assert_eq!(iprof.ranked_pairs().iter().map(|(_, n)| n).sum::<u64>(), total - 1);
        let stmt_execs: u64 = prof_b.stmt_exec.values().sum();
        assert_eq!(iprof.count_of("StmtEnter"), stmt_execs);
        let loads: u64 = prof_b.stmt_ops.values().map(|c| c.loads).sum();
        let stores: u64 = prof_b.stmt_ops.values().map(|c| c.stores).sum();
        assert_eq!(iprof.count_of("LoadElem"), loads);
        assert_eq!(iprof.count_of("StoreElem"), stores);
        let lib_calls: u64 = prof_b.lib_calls.values().sum();
        assert_eq!(iprof.count_of("Lib"), lib_calls);
    }

    #[test]
    fn ranked_reports_are_sorted_and_deterministic() {
        let p = parse("fn main() { let s = 0; for i in 0 .. 100 { s = s + i; } print(s); }").unwrap();
        let vm = compile(&p).unwrap();
        let run = || {
            let (_, _, _, i) = vm.run_profiled(&InputSpec::new(), NullTracer, Limits::default(), 42).unwrap();
            i
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "profiles must be run-to-run identical");
        let ops = a.ranked_ops();
        assert!(ops.windows(2).all(|w| w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0)), "{ops:?}");
        let pairs = a.ranked_pairs();
        assert!(pairs.windows(2).all(|w| w[0].1 >= w[1].1), "{pairs:?}");
        // the hot loop body dominates: IterTick appears 100 times
        assert_eq!(a.count_of("IterTick"), 100);
    }

    #[test]
    fn op_kind_names_cover_every_variant() {
        // spot-check the dense index table stays aligned with the enum
        assert_eq!(OP_KIND_NAMES.len(), NUM_OP_KINDS);
        assert_eq!(op_kind(&Op::Num(0.0)), 0);
        assert_eq!(OP_KIND_NAMES[op_kind(&Op::Ret)], "Ret");
        assert_eq!(OP_KIND_NAMES[op_kind(&Op::Pop)], "Pop");
        assert_eq!(OP_KIND_NAMES[op_kind(&Op::Trap(Box::new(RuntimeError::UnknownFunction("f".into()))))], "Trap");
        assert_eq!(OP_KIND_NAMES[op_kind(&Op::JumpIfGeRaw { cur: 0, hi: 0, target: 0 })], "JumpIfGeRaw");
        let mut seen = std::collections::HashSet::new();
        for n in OP_KIND_NAMES {
            assert!(seen.insert(n), "duplicate kind name {n}");
        }
    }

    #[test]
    fn kind_constants_match_op_kind() {
        assert_eq!(kind::NUM, op_kind(&Op::Num(0.0)));
        assert_eq!(kind::LOAD_SCALAR, op_kind(&Op::LoadScalar(0)));
        assert_eq!(kind::STORE_SLOT, op_kind(&Op::StoreSlot(0)));
        assert_eq!(kind::LOAD_ELEM, op_kind(&Op::LoadElem(0)));
        assert_eq!(kind::STORE_ELEM, op_kind(&Op::StoreElem(0)));
        assert_eq!(kind::BIN, op_kind(&Op::Bin { op: BinOp::Add, idx_ctx: false }));
        assert_eq!(kind::JUMP, op_kind(&Op::Jump(0)));
        assert_eq!(kind::STMT_ENTER, op_kind(&Op::StmtEnter(MStmtId(0))));
        assert_eq!(kind::ITER_TICK, op_kind(&Op::IterTick(MStmtId(0))));
        assert_eq!(kind::ADVANCE_RAW, op_kind(&Op::AdvanceRaw { cur: 0, step: 0 }));
    }

    #[test]
    fn fused_dispatch_accounts_constituents_identically() {
        let p = parse("fn main() { let s = 0; for i in 0 .. 50 { s = s + i * 2.0; } print(s); }").unwrap();
        let vm = lower(&p).unwrap();
        let fused = compile(&p).unwrap();
        assert!(fused.code_len() < vm.code_len());
        let (prof_a, _, ret_a, ia) =
            vm.run_profiled(&InputSpec::new(), NullTracer, Limits::default(), crate::DEFAULT_SEED).unwrap();
        let (prof_b, _, ret_b, ib) =
            fused.run_profiled(&InputSpec::new(), NullTracer, Limits::default(), crate::DEFAULT_SEED).unwrap();
        assert_eq!(ret_a.to_bits(), ret_b.to_bits());
        assert_eq!(prof_a.printed, prof_b.printed);
        assert_eq!(prof_a.stmt_ops, prof_b.stmt_ops);
        assert_eq!(prof_a.stmt_exec, prof_b.stmt_exec);
        assert_eq!(prof_a.loops, prof_b.loops);
        // the observed base-opcode stream is fusion-invariant...
        assert!(ia.stream_eq(&ib));
        assert_eq!(ia.ranked_ops(), ib.ranked_ops());
        assert_eq!(ia.ranked_pairs(), ib.ranked_pairs());
        assert_eq!(ia.total(), ib.total());
        // ...while the side-band fused counters differ: none unfused,
        // one per dispatched superinstruction on the fused program
        assert_eq!(ia.fused_dispatches(), 0);
        assert!(ib.fused_dispatches() > 0);
        assert!(!ia.stream_eq(&InstrProfile::new()));
        // side-band counters flush under their own prefix
        let rec = xflow_obs::CollectingRecorder::new();
        ib.flush_to(&rec);
        let fused_total: u64 = ib.ranked_fused().iter().map(|(_, n)| n).sum();
        assert_eq!(fused_total, ib.fused_dispatches());
        assert_eq!(rec.counter_value("vm.instructions"), ib.total());
        let side_band = rec.counters_with_prefix("vm.fused.");
        assert_eq!(side_band.iter().map(|(_, n)| n).sum::<u64>(), ib.fused_dispatches());
        assert!(side_band.iter().all(|(k, _)| k.strip_prefix("vm.fused.").is_some()));
    }

    #[test]
    fn inputs_resolve_at_runtime_not_compile_time() {
        let p = parse(r#"fn main() { return input("N", 5); }"#).unwrap();
        let vm = compile(&p).unwrap();
        let (_, _, a) = run_with(&vm, &InputSpec::new(), Limits::default()).unwrap();
        let (_, _, b) = run_with(&vm, &InputSpec::from_pairs([("N", 9.0)]), Limits::default()).unwrap();
        assert_eq!(a, 5.0);
        assert_eq!(b, 9.0);
    }
}
