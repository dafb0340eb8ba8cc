//! Bytecode VM for minilang — the production execution engine.
//!
//! [`compile`] lowers a program once into a flat instruction stream with
//! resolved variable slots and fuses its hottest digrams into
//! superinstructions ([`crate::fuse`]); [`VmProgram::run`] executes it on
//! a stack machine, and [`VmProgram::run_profiled`] is the same loop with
//! per-opcode instruction counting compiled in. This one bytecode runs every
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
//! **Block counting.** Like gcov, a run counts basic blocks, not
//! operations. At compile time `lower` splits each function's bytecode
//! into basic blocks and records what one execution of each block adds to
//! the [`Profile`]: statement executions, the flops, iops, divs, loads and
//! stores of its operations (each charged to the statement of the nearest
//! earlier `StmtEnter`/`SetCur` in pc order, which is the statement the run
//! attributes it to), loop iterations, `if`-arm hits and library calls.
//! At run time only control transfers count: every jump bumps the counter
//! of the block it enters (a conditional jump its taken or its
//! fall-through block), and `Call` bumps the callee's entry block. When the
//! run succeeds, a block's execution count is its jump-in count plus its
//! predecessor's count when the predecessor falls into it, and the profile
//! is Σ count × effects. Loop entries, `break`/`continue` counts and the
//! `else` count follow from statement execution counts. Step ticks,
//! attribution (`cur_stmt`) and every [`Tracer`] event stay per operation,
//! so the step limit and the simulator's replay are unchanged.
//!
//! **Flat run state.** The operand stack is one `Vec<f64>` indexed by a
//! stack pointer, sized from each function's compile-time maximum depth
//! and grown only at `Call`: every expression the compiler emits evaluates
//! to a number, so arithmetic, stores, `Ret` and `Pop` never see an array.
//! Arrays live in the run's arena (`Heap`) and travel as copyable handles
//! only as call arguments: a bare name in argument position compiles to
//! `PushSlot`, which pushes the slot's value (an array handle, or a
//! number) onto a separate argument stack, and `Call` gathers its
//! arguments in source order from the two stacks, told which position is
//! which by the call site's entry in its function's `call_sites` table.
//! The running frame's code, pc and slots live in locals of the dispatch
//! loop; `frames` holds only the suspended callers.

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
    /// dense profile accumulators.
    pub(crate) n_stmts: usize,
    /// The basic blocks every function's code splits into, and what each
    /// adds to the profile per execution.
    pub(crate) blocks: Blocks,
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
    /// Most operand-stack entries the code holds at once, above what the
    /// caller held when it called.
    pub(crate) max_stack: usize,
    /// The block counter `Call` bumps: the code's first block.
    pub(crate) entry_block: u32,
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
    /// Pop condition; jump if zero. Bumps the block counter of the
    /// `taken` block or of the `fall`-through block.
    JumpIfZero {
        target: usize,
        taken: u32,
        fall: u32,
    },
    /// Unconditional jump; bumps the counter of the target's `block`.
    Jump {
        target: usize,
        block: u32,
    },
    /// Statement prologue: tick, cur_stmt = id (one execution of `id`).
    StmtEnter(MStmtId),
    /// Set attribution without a tick (loop-head condition re-evaluation).
    SetCur(MStmtId),
    /// Per-iteration (`for`): tick, 2 iops to the loop (one iteration).
    IterTick(MStmtId),
    /// Per-iteration (`while`): tick only — the reference charges loop
    /// bookkeeping iops for counted loops, not for `while`.
    IterTickWhile(MStmtId),
    /// Raw (uncounted) loop machinery: jump if slot `cur` >= slot `hi`,
    /// bumping the `taken` or the `fall`-through block's counter.
    JumpIfGeRaw {
        cur: u16,
        hi: u16,
        target: usize,
        taken: u32,
        fall: u32,
    },
    /// Raw cursor advance: slot += step-slot.
    AdvanceRaw {
        cur: u16,
        step: u16,
    },
    /// Clamp the step slot to be strictly positive (mirrors the reference).
    ClampStepRaw(u16),
    /// Gather the arguments `call_sites[site]` describes into a fresh
    /// frame, suspend the caller and bump the callee's entry block.
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
    /// `AdvanceRaw{cur,step}; Jump{target,block}` — the counted-loop back
    /// edge.
    AdvanceJump {
        cur: u16,
        step: u16,
        target: usize,
        block: u32,
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
    pub const ITER_TICK: usize = 24;
    pub const ADVANCE_RAW: usize = 27;
}

// ---------------------------------------------------------------------------
// Instruction profiling
// ---------------------------------------------------------------------------

/// Number of distinct opcode kinds (one per `Op` variant).
pub const NUM_OP_KINDS: usize = 34;

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
    "IterTick",
    "IterTickWhile",
    "JumpIfGeRaw",
    "AdvanceRaw",
    "ClampStepRaw",
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
        Op::JumpIfZero { .. } => 20,
        Op::Jump { .. } => 21,
        Op::StmtEnter(_) => 22,
        Op::SetCur(_) => 23,
        Op::IterTick(_) => 24,
        Op::IterTickWhile(_) => 25,
        Op::JumpIfGeRaw { .. } => 26,
        Op::AdvanceRaw { .. } => 27,
        Op::ClampStepRaw(_) => 28,
        Op::Call { .. } => 29,
        Op::Ret => 30,
        Op::Print => 31,
        Op::Pop => 32,
        Op::Trap(_) => 33,
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
    let mut arm_heads = Vec::with_capacity(prog.functions.len());
    let mut shape = Shape::default();
    let mut n_stmts = 0;
    for f in &prog.functions {
        let (func, n, arms) = compile_fn(prog, f, &fn_ids, &mut shape)?;
        // every statement id an op carries is that of a compiled statement
        n_stmts = n_stmts.max(n);
        funcs.push(func);
        arm_heads.push(arms);
    }
    let blocks = Blocks::split(&mut funcs, &arm_heads, shape);
    Ok(VmProgram { funcs, entry, n_stmts, blocks })
}

/// Where an `if` arm's body starts: the fall-through pc of the arm's
/// condition jump, the `if` statement and the arm index.
type ArmHead = (usize, MStmtId, usize);

struct FnCompiler<'p> {
    prog: &'p Program,
    fn_ids: &'p HashMap<&'p str, usize>,
    slots: HashMap<&'p str, u16>,
    slot_names: Vec<String>,
    input_table: Vec<(String, f64)>,
    call_sites: Vec<Vec<bool>>,
    code: Vec<Op>,
    loops: Vec<LoopCtx>,
    arm_heads: Vec<ArmHead>,
    shape: &'p mut Shape,
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

fn compile_fn<'p>(
    prog: &'p Program,
    f: &'p Function,
    fn_ids: &'p HashMap<&'p str, usize>,
    shape: &'p mut Shape,
) -> Result<(VmFunc, usize, Vec<ArmHead>), RuntimeError> {
    let mut c = FnCompiler {
        prog,
        fn_ids,
        slots: HashMap::new(),
        slot_names: Vec::new(),
        input_table: Vec::new(),
        call_sites: Vec::new(),
        code: Vec::new(),
        loops: Vec::new(),
        arm_heads: Vec::new(),
        shape,
        n_stmts: 0,
    };
    for p in &f.params {
        c.slot(p);
    }
    c.block(&f.body)?;
    // implicit `return 0.0`
    c.code.push(Op::Num(0.0));
    c.code.push(Op::Ret);
    let max_stack = max_stack(&c.code, &c.call_sites);
    let func = VmFunc {
        name: f.name.clone(),
        n_params: f.params.len(),
        n_slots: c.slot_names.len(),
        slot_names: c.slot_names,
        input_table: c.input_table,
        call_sites: c.call_sites,
        max_stack,
        entry_block: NO_BLOCK, // set by `Blocks::split`
        code: c.code,
    };
    Ok((func, c.n_stmts, c.arm_heads))
}

impl<'p> FnCompiler<'p> {
    fn slot(&mut self, name: &'p str) -> u16 {
        let next = self.slot_names.len() as u16;
        let s = *self.slots.entry(name).or_insert(next);
        if s == next {
            self.slot_names.push(name.to_owned());
        }
        s
    }

    /// A compiler temporary that no variable names; `tag` (`"<cur>"`, …) is
    /// its name.
    fn hidden_slot(&mut self, tag: &'static str) -> u16 {
        self.slot_names.push(tag.to_owned());
        (self.slot_names.len() - 1) as u16
    }

    fn block(&mut self, b: &'p Block) -> Result<(), RuntimeError> {
        for s in &b.stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &'p Stmt) -> Result<(), RuntimeError> {
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
                let idx_slot = self.hidden_slot("<idx>");
                let val_slot = self.hidden_slot("<val>");
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
                let res_slot = self.hidden_slot("<res>");
                self.code.push(Op::StoreSlot(res_slot));
                self.code.push(Op::LoadScalar(idx_slot));
                self.code.push(Op::LoadScalar(res_slot));
                self.code.push(Op::StoreElem(arr));
            }
            StmtKind::For { var, lo, hi, step, parallel: _, body } => {
                let cur = self.hidden_slot("<cur>");
                let hi_s = self.hidden_slot("<hi>");
                let step_s = self.hidden_slot("<step>");
                self.expr(lo, true)?;
                self.code.push(Op::StoreSlot(cur));
                self.expr(hi, true)?;
                self.code.push(Op::StoreSlot(hi_s));
                self.expr(step, true)?;
                self.code.push(Op::StoreSlot(step_s));
                self.code.push(Op::ClampStepRaw(step_s));
                self.shape.loops.push(s.id);
                let head = self.code.len();
                let exit_patch = self.code.len();
                self.code.push(Op::JumpIfGeRaw { cur, hi: hi_s, target: usize::MAX, taken: NO_BLOCK, fall: NO_BLOCK });
                self.code.push(Op::IterTick(s.id));
                let var_slot = self.slot(var);
                self.code.push(Op::LoadScalar(cur));
                self.code.push(Op::StoreSlot(var_slot));
                self.loops.push(LoopCtx { stmt: s.id, break_patches: vec![], continue_patches: vec![] });
                self.block(body)?;
                let ctx = self.loops.pop().expect("loop ctx");
                let continue_pc = self.code.len();
                self.code.push(Op::AdvanceRaw { cur, step: step_s });
                self.code.push(Op::Jump { target: head, block: NO_BLOCK });
                let exit_pc = self.code.len();
                self.patch_jump(exit_patch, exit_pc);
                for p in ctx.break_patches {
                    self.patch_jump(p, exit_pc);
                }
                for p in ctx.continue_patches {
                    self.patch_jump(p, continue_pc);
                }
            }
            StmtKind::While { cond, body } => {
                self.shape.loops.push(s.id);
                let head = self.code.len();
                // the reference re-attributes the condition to the while
                // statement on every check
                self.code.push(Op::SetCur(s.id));
                self.expr(cond, false)?;
                let exit_patch = self.jump_if_zero();
                self.code.push(Op::IterTickWhile(s.id));
                self.loops.push(LoopCtx { stmt: s.id, break_patches: vec![], continue_patches: vec![] });
                self.block(body)?;
                let ctx = self.loops.pop().expect("loop ctx");
                self.code.push(Op::Jump { target: head, block: NO_BLOCK });
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
                self.shape.ifs.push((s.id, arms.len()));
                let mut end_patches = Vec::new();
                for (i, (cond, body)) in arms.iter().enumerate() {
                    self.code.push(Op::SetCur(s.id));
                    self.expr(cond, false)?;
                    let next_patch = self.jump_if_zero();
                    self.arm_heads.push((self.code.len(), s.id, i));
                    self.block(body)?;
                    end_patches.push(self.jump());
                    let next_pc = self.code.len();
                    self.patch_jump(next_patch, next_pc);
                }
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
                self.shape.exits.push(LoopExit { loop_id, stmt: s.id, is_break: true });
                let p = self.jump();
                self.loops.last_mut().unwrap().break_patches.push(p);
            }
            StmtKind::Continue => {
                let Some(ctx) = self.loops.last_mut() else {
                    self.code.push(Op::Num(0.0));
                    self.code.push(Op::Ret);
                    return Ok(());
                };
                let loop_id = ctx.stmt;
                self.shape.exits.push(LoopExit { loop_id, stmt: s.id, is_break: false });
                let p = self.jump();
                self.loops.last_mut().unwrap().continue_patches.push(p);
            }
            StmtKind::Print { expr } => {
                self.expr(expr, false)?;
                self.code.push(Op::Print);
            }
        }
        Ok(())
    }

    /// Emit a `Jump` to be patched; returns its pc.
    fn jump(&mut self) -> usize {
        self.code.push(Op::Jump { target: usize::MAX, block: NO_BLOCK });
        self.code.len() - 1
    }

    /// Emit a `JumpIfZero` to be patched; returns its pc.
    fn jump_if_zero(&mut self) -> usize {
        self.code.push(Op::JumpIfZero { target: usize::MAX, taken: NO_BLOCK, fall: NO_BLOCK });
        self.code.len() - 1
    }

    fn patch_jump(&mut self, at: usize, to: usize) {
        match &mut self.code[at] {
            Op::Jump { target, .. } | Op::JumpIfZero { target, .. } | Op::JumpIfGeRaw { target, .. } => *target = to,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn call(&mut self, name: &str, args: &'p [Expr]) -> Result<(), RuntimeError> {
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

    fn expr(&mut self, e: &'p Expr, idx_ctx: bool) -> Result<(), RuntimeError> {
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
                let short = self.jump_if_zero();
                self.expr(r, idx_ctx)?;
                self.code.push(Op::NormBoolRaw);
                let end = self.jump();
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
                let to_rhs = self.jump_if_zero();
                self.code.push(Op::Num(1.0));
                let end = self.jump();
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
// Basic blocks and block counting
// ---------------------------------------------------------------------------

/// Block id of a jump not yet split into blocks.
const NO_BLOCK: u32 = u32::MAX;

/// The statements whose profile entries follow from statement execution
/// counts alone, collected while lowering.
#[derive(Debug, Clone, Default)]
pub(crate) struct Shape {
    /// `for`/`while` statements: each execution enters the loop once.
    loops: Vec<MStmtId>,
    /// `break`/`continue` statements inside a loop: each execution ends
    /// one iteration of the innermost enclosing loop.
    exits: Vec<LoopExit>,
    /// `if` statements and their arm counts: each execution hits one arm
    /// or the else.
    ifs: Vec<(MStmtId, usize)>,
}

#[derive(Debug, Clone, Copy)]
struct LoopExit {
    loop_id: MStmtId,
    stmt: MStmtId,
    is_break: bool,
}

/// What one execution of a block adds to the profile.
#[derive(Debug, Clone, Copy)]
enum Effect {
    /// One execution of a statement.
    Exec(MStmtId),
    /// Operations charged to a statement.
    Ops(MStmtId, OpCounts),
    /// One iteration of a loop.
    Iter(MStmtId),
    /// One call of library function `LIB_COUNTER_NAMES[i]`.
    Lib(usize),
    /// One hit of an `if` statement's arm.
    Arm(MStmtId, usize),
}

/// The basic blocks of a program's code, numbered function by function in
/// pc order, with what one execution of each adds to the profile.
///
/// Derived from the lowered code. Fusion keeps it valid: no fusion digram
/// starts with a block-ending op, and no pair absorbs a jump target, so a
/// fused op never spans two blocks and every jump keeps its block ids.
#[derive(Debug, Clone)]
pub(crate) struct Blocks {
    /// Whether block `b` is entered by falling through from block `b - 1`,
    /// which then ends in no jump, return or trap.
    falls_in: Vec<bool>,
    /// Block `b`'s effects are `effects[first[b]..first[b + 1]]`.
    first: Vec<u32>,
    effects: Vec<Effect>,
    shape: Shape,
}

/// Whether an op ends its basic block: control does not simply continue
/// at the next pc.
fn ends_block(op: &Op) -> bool {
    matches!(
        op,
        Op::Jump { .. }
            | Op::JumpIfZero { .. }
            | Op::JumpIfGeRaw { .. }
            | Op::AdvanceJump { .. }
            | Op::Ret
            | Op::Trap(_)
    )
}

/// The pc an op may jump to.
fn jump_target(op: &Op) -> Option<usize> {
    match op {
        Op::Jump { target, .. }
        | Op::JumpIfZero { target, .. }
        | Op::JumpIfGeRaw { target, .. }
        | Op::AdvanceJump { target, .. } => Some(*target),
        _ => None,
    }
}

/// Operations a `Bin` retires: `(flops, iops, divs)` — index arithmetic
/// is integer work, a value-position divide is a flop and a div.
#[inline(always)]
fn bin_counts(op: BinOp, idx_ctx: bool) -> (u32, u32, u32) {
    if idx_ctx {
        (0, 1, 0)
    } else if op == BinOp::Div {
        (1, 0, 1)
    } else {
        (1, 0, 0)
    }
}

/// The [`LIB_COUNTER_NAMES`] slot of a library builtin.
#[inline(always)]
fn lib_slot(b: Builtin) -> usize {
    match b {
        Builtin::Rnd => 0,
        Builtin::Exp => 1,
        Builtin::Log => 2,
        Builtin::Sqrt => 3,
        Builtin::Sin => 4,
        Builtin::Cos => 5,
        Builtin::Pow => 6,
        other => unreachable!("{other:?} is not a lib builtin"),
    }
}

impl Blocks {
    /// Split every function's lowered code into basic blocks, record what
    /// each block adds to the profile, and point every jump and function at
    /// the block counters it bumps. `arm_heads[f]` lists function `f`'s
    /// `if`-arm body starts in pc order.
    fn split(funcs: &mut [VmFunc], arm_heads: &[Vec<ArmHead>], shape: Shape) -> Blocks {
        let n_ops: usize = funcs.iter().map(|f| f.code.len()).sum();
        let mut blocks = Blocks {
            falls_in: Vec::with_capacity(n_ops / 4),
            first: Vec::with_capacity(n_ops / 4 + 1),
            effects: Vec::with_capacity(n_ops / 2),
            shape,
        };
        blocks.first.push(0);
        let mut leader = Vec::new();
        let mut block_at = Vec::new();
        let mut ops: Vec<(MStmtId, OpCounts)> = Vec::new();
        for (f, arms) in funcs.iter_mut().zip(arm_heads) {
            let code = &mut f.code;
            let n = code.len();
            leader.clear();
            leader.resize(n + 1, false);
            leader[0] = true;
            for (pc, op) in code.iter().enumerate() {
                if let Some(t) = jump_target(op) {
                    leader[t] = true;
                }
                if ends_block(op) {
                    leader[pc + 1] = true;
                }
            }
            f.entry_block = u32::try_from(blocks.falls_in.len()).expect("fewer than 2^32 blocks");
            block_at.clear();
            let mut arms = arms.iter().peekable();
            let mut cur = None;
            for (pc, op) in code.iter().enumerate() {
                if leader[pc] {
                    if pc > 0 {
                        blocks.close(&mut ops);
                    }
                    blocks.falls_in.push(pc > 0 && !ends_block(&code[pc - 1]));
                }
                block_at.push(blocks.falls_in.len() as u32 - 1);
                if let Some(&&(at, stmt, arm)) = arms.peek() {
                    if at == pc {
                        // the body is entered only by falling through its
                        // condition's jump, so the block counts the hits
                        debug_assert!(!code.iter().any(|op| jump_target(op) == Some(pc)), "{stmt:?} arm {arm}");
                        blocks.effects.push(Effect::Arm(stmt, arm));
                        arms.next();
                    }
                }
                let (stmt, flops, iops, divs, loads, stores) = match op {
                    Op::StmtEnter(id) => {
                        cur = Some(*id);
                        blocks.effects.push(Effect::Exec(*id));
                        continue;
                    }
                    Op::SetCur(id) => {
                        cur = Some(*id);
                        continue;
                    }
                    Op::IterTick(id) => {
                        blocks.effects.push(Effect::Iter(*id));
                        (Some(*id), 0, 2, 0, 0, 0)
                    }
                    Op::IterTickWhile(id) => {
                        blocks.effects.push(Effect::Iter(*id));
                        continue;
                    }
                    Op::Lib(b) => {
                        blocks.effects.push(Effect::Lib(lib_slot(*b)));
                        continue;
                    }
                    Op::LoadElem(_) => (cur, 0, 0, 0, 1, 0),
                    Op::StoreElem(_) => (cur, 0, 0, 0, 0, 1),
                    Op::Bin { op, idx_ctx } => {
                        let (flops, iops, divs) = bin_counts(*op, *idx_ctx);
                        (cur, flops, iops, divs, 0, 0)
                    }
                    Op::Neg { idx_ctx: true } | Op::Not | Op::CountIop => (cur, 0, 1, 0, 0, 0),
                    Op::Neg { idx_ctx: false } | Op::Cmp(_) | Op::Abs | Op::Floor | Op::Min | Op::Max => {
                        (cur, 1, 0, 0, 0, 0)
                    }
                    _ => continue,
                };
                let stmt = stmt.expect("every counted operation follows a statement prologue");
                let i = match ops.iter().position(|(s, _)| *s == stmt) {
                    Some(i) => i,
                    None => {
                        ops.push((stmt, OpCounts::default()));
                        ops.len() - 1
                    }
                };
                let c = &mut ops[i].1;
                c.flops += u64::from(flops);
                c.iops += u64::from(iops);
                c.divs += u64::from(divs);
                c.loads += loads;
                c.stores += stores;
            }
            blocks.close(&mut ops);
            debug_assert!(arms.next().is_none(), "every arm head starts a block");
            for (pc, op) in code.iter_mut().enumerate() {
                match op {
                    Op::Jump { target, block } => *block = block_at[*target],
                    Op::JumpIfZero { target, taken, fall } | Op::JumpIfGeRaw { target, taken, fall, .. } => {
                        *taken = block_at[*target];
                        *fall = block_at[pc + 1];
                    }
                    _ => {}
                }
            }
        }
        blocks
    }

    /// End the block being recorded: its operation counts become effects.
    fn close(&mut self, ops: &mut Vec<(MStmtId, OpCounts)>) {
        self.effects.extend(ops.drain(..).map(|(s, c)| Effect::Ops(s, c)));
        self.first.push(u32::try_from(self.effects.len()).expect("fewer than 2^32 block effects"));
    }

    /// Number of blocks, and of block counters a run keeps.
    fn len(&self) -> usize {
        self.falls_in.len()
    }

    /// The profile of a successful run, from its block counters (how often
    /// each block was jumped or called into) and the values it printed.
    fn profile(&self, mut counts: Vec<u64>, n_stmts: usize, printed: Vec<f64>) -> Profile {
        for b in 1..counts.len() {
            if self.falls_in[b] {
                counts[b] += counts[b - 1];
            }
        }
        let mut exec = vec![0u64; n_stmts];
        let mut ops = vec![OpCounts::default(); n_stmts];
        let mut loops = vec![LoopStats::default(); n_stmts];
        let mut branches = vec![BranchStats::default(); n_stmts];
        let mut lib_calls = [0u64; LIB_COUNTER_NAMES.len()];
        for (b, &n) in counts.iter().enumerate().filter(|(_, n)| **n > 0) {
            for e in &self.effects[self.first[b] as usize..self.first[b + 1] as usize] {
                match *e {
                    Effect::Exec(id) => exec[id.0 as usize] += n,
                    Effect::Ops(id, c) => {
                        let o = &mut ops[id.0 as usize];
                        o.flops += n * c.flops;
                        o.iops += n * c.iops;
                        o.divs += n * c.divs;
                        o.loads += n * c.loads;
                        o.stores += n * c.stores;
                    }
                    Effect::Iter(id) => loops[id.0 as usize].iterations += n,
                    Effect::Lib(i) => lib_calls[i] += n,
                    Effect::Arm(id, arm) => {
                        let hits = &mut branches[id.0 as usize].arm_hits;
                        if hits.len() <= arm {
                            hits.resize(arm + 1, 0);
                        }
                        hits[arm] += n;
                    }
                }
            }
        }
        for id in &self.shape.loops {
            loops[id.0 as usize].entries += exec[id.0 as usize];
        }
        for x in &self.shape.exits {
            let l = &mut loops[x.loop_id.0 as usize];
            if x.is_break {
                l.breaks += exec[x.stmt.0 as usize];
            } else {
                l.continues += exec[x.stmt.0 as usize];
            }
        }
        for &(id, arms) in &self.shape.ifs {
            let n = exec[id.0 as usize];
            if n > 0 {
                let b = &mut branches[id.0 as usize];
                if b.arm_hits.len() < arms {
                    b.arm_hits.resize(arms, 0);
                }
                b.else_hits = n - b.arm_hits.iter().sum::<u64>();
            }
        }

        // One pass into the public `HashMap` shape. Entry presence matches
        // the reference: it creates an entry exactly when a counter of it
        // moves, so "accumulator is non-default" is "the reference has it".
        let mut p = Profile { printed, ..Profile::default() };
        for (i, &n) in exec.iter().enumerate() {
            if n > 0 {
                p.stmt_exec.insert(MStmtId(i as u32), n);
            }
        }
        for (i, &c) in ops.iter().enumerate() {
            if c != OpCounts::default() {
                p.stmt_ops.insert(MStmtId(i as u32), c);
            }
        }
        for (i, &l) in loops.iter().enumerate() {
            if l != LoopStats::default() {
                p.loops.insert(MStmtId(i as u32), l);
            }
        }
        for (i, b) in branches.into_iter().enumerate() {
            if b != BranchStats::default() {
                p.branches.insert(MStmtId(i as u32), b);
            }
        }
        for (i, &n) in lib_calls.iter().enumerate() {
            if n > 0 {
                p.lib_calls.insert(LIB_COUNTER_NAMES[i].to_string(), n);
            }
        }
        p
    }
}

/// Operand-stack entries an op pops and pushes.
fn stack_effect(op: &Op, call_sites: &[Vec<bool>]) -> (usize, usize) {
    match op {
        Op::Num(_) | Op::LoadScalar(_) | Op::Len(_) | Op::Input(_) | Op::Lib(Builtin::Rnd) => (0, 1),
        Op::StoreSlot(_) | Op::NewArray(_) | Op::JumpIfZero { .. } | Op::Print | Op::Pop | Op::Ret => (1, 0),
        Op::StoreElem(_) => (2, 0),
        Op::Bin { .. } | Op::Cmp(_) | Op::Min | Op::Max | Op::Lib(Builtin::Pow) => (2, 1),
        Op::NormBoolRaw | Op::LoadElem(_) | Op::Neg { .. } | Op::Not | Op::Abs | Op::Floor | Op::Lib(_) => (1, 1),
        Op::Call { site, .. } => (call_sites[*site].iter().filter(|by_ref| !**by_ref).count(), 1),
        _ => (0, 0),
    }
}

/// The most operand-stack entries lowered `code` holds at once, from depth
/// 0 at entry. One pass in pc order: the compiler's structured code reaches
/// every pc that follows a jump, return or trap only by a forward jump
/// (loop heads, reached backwards, are first reached by falling through),
/// and every path reaches a pc at one depth.
fn max_stack(code: &[Op], call_sites: &[Vec<bool>]) -> usize {
    let mut at_target: Vec<Option<usize>> = vec![None; code.len()];
    let mut depth = Some(0);
    let mut max = 0;
    for (pc, op) in code.iter().enumerate() {
        if let Some(d) = at_target[pc] {
            debug_assert!(depth.is_none_or(|x| x == d), "stack depth at pc {pc}");
            depth = Some(d);
        }
        // unreachable code: after a return or trap, nothing jumps here
        let Some(d) = depth else { continue };
        let (pops, pushes) = stack_effect(op, call_sites);
        let out = d.checked_sub(pops).expect("compiled code never pops an empty stack") + pushes;
        max = max.max(out);
        if let Some(t) = jump_target(op) {
            if t > pc {
                at_target[t] = Some(out);
            }
        }
        depth = (!matches!(op, Op::Jump { .. } | Op::AdvanceJump { .. } | Op::Ret | Op::Trap(_))).then_some(out);
    }
    max
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

/// Library-counter names, indexed by [`lib_slot`].
const LIB_COUNTER_NAMES: [&str; 7] = ["rand", "exp", "log", "sqrt", "sin", "cos", "pow"];

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
    // the running frame
    let mut func = &vm.funcs[vm.entry];
    let mut code: &[Op] = &func.code;
    let mut pc = 0;
    let mut slots = unset_slots(func.n_slots);
    // jump-ins per block; main's entry block is entered once
    let mut counts = vec![0u64; vm.blocks.len()];
    counts[func.entry_block as usize] = 1;
    let mut printed = Vec::new();
    let mut rng = Lcg(seed);
    let mut heap = Heap::default();
    let mut steps: u64 = 0;
    let mut cur_stmt = MStmtId(0);
    // the operand stack: `stack[..sp]` is live, and `stack.len()` covers
    // the running frame's `max_stack` above its base
    let mut stack = vec![0.0f64; func.max_stack];
    let mut sp = 0usize;
    let mut arg_stack: Vec<Val> = Vec::new();
    let mut frames: Vec<Frame> = Vec::new();

    macro_rules! push {
        ($v:expr) => {{
            let v: f64 = $v;
            stack[sp] = v;
            sp += 1;
        }};
    }

    macro_rules! pop {
        () => {{
            sp -= 1;
            stack[sp]
        }};
    }

    /// Count one entry into `block`.
    macro_rules! enter {
        ($block:expr) => {
            counts[$block as usize] += 1
        };
    }

    // Shared opcode bodies. Base arms and the superinstruction arms that
    // fuse them (`crate::fuse`) expand the same macros, so a fused
    // dispatch produces bit-identical tracer events, errors, and RNG draws
    // to its unfused constituent sequence. They capture the running frame
    // (`func`, `slots`) and the run state (`stack`, `heap`, `tracer`,
    // `cur_stmt`, `steps`, `limits`).

    /// `LoadScalar` body: the slot's scalar value, with the exact
    /// unbound/not-a-scalar error precedence.
    macro_rules! scalar_of {
        ($s:expr) => {{
            let s = $s as usize;
            match slots[s] {
                Val::Num(v) if !is_unset_num(v) => v,
                Val::Num(_) => return Err(RuntimeError::UnboundVariable(func.slot_names[s].clone())),
                Val::Arr(_) => return Err(RuntimeError::NotAScalar(func.slot_names[s].clone())),
            }
        }};
    }

    /// The slot's array, with the exact unbound/not-an-array precedence.
    macro_rules! arr_of {
        ($s:expr) => {
            match slots[$s] {
                Val::Arr(a) => a,
                Val::Num(x) if is_unset_num(x) => {
                    return Err(RuntimeError::UnboundVariable(func.slot_names[$s].clone()))
                }
                Val::Num(_) => return Err(RuntimeError::NotAnArray(func.slot_names[$s].clone())),
            }
        };
    }

    /// `LoadElem` body after the index is popped: bounds-checked element
    /// read, one load event to the tracer.
    macro_rules! elem_load {
        ($s:expr, $idx:expr) => {{
            let s = $s as usize;
            let idx: f64 = $idx;
            let a = arr_of!(s);
            let i = idx as usize;
            if idx < 0.0 || i >= a.len() {
                return Err(RuntimeError::IndexOutOfBounds {
                    array: func.slot_names[s].clone(),
                    index: idx,
                    len: a.len(),
                });
            }
            tracer.load(cur_stmt, a.base + (i as u64) * 8);
            heap.load(a, i)
        }};
    }

    /// `StoreElem` body after value and index are popped: bounds-checked
    /// element write, one store event to the tracer.
    macro_rules! elem_store {
        ($s:expr, $idx:expr, $value:expr) => {{
            let s = $s as usize;
            let idx: f64 = $idx;
            let value: f64 = $value;
            let a = arr_of!(s);
            let i = idx as usize;
            if idx < 0.0 || i >= a.len() {
                return Err(RuntimeError::IndexOutOfBounds {
                    array: func.slot_names[s].clone(),
                    index: idx,
                    len: a.len(),
                });
            }
            heap.store(a, i, value);
            tracer.store(cur_stmt, a.base + (i as u64) * 8);
        }};
    }

    /// `Bin` body after both operands are popped: trace the operation,
    /// apply, yield the result.
    macro_rules! bin_apply {
        ($op:expr, $idx_ctx:expr, $l:expr, $r:expr) => {{
            let l: f64 = $l;
            let r: f64 = $r;
            let op: BinOp = $op;
            let (flops, iops, divs) = bin_counts(op, $idx_ctx);
            tracer.ops(cur_stmt, flops, iops, divs);
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

    /// `StmtEnter` body: step-limit tick and attribution.
    macro_rules! stmt_enter {
        ($id:expr) => {{
            tick!();
            cur_stmt = $id;
        }};
    }

    /// `IterTick` body (counted loops): step-limit tick, two bookkeeping
    /// iops charged to the loop statement.
    macro_rules! iter_tick {
        ($id:expr) => {{
            tick!();
            tracer.ops($id, 0, 2, 0);
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
                push!(v);
            }
            Op::StmtEnterLoad { id, slot } => {
                stmt_enter!(*id);
                push!(scalar_of!(*slot));
            }
            Op::LoadScalar2 { a, b } => {
                push!(scalar_of!(*a));
                push!(scalar_of!(*b));
            }
            Op::LoadScalarBin { slot, op, idx_ctx } => {
                let r = scalar_of!(*slot);
                let l = pop!();
                push!(bin_apply!(*op, *idx_ctx, l, r));
            }
            Op::LoadElemBin { arr, op, idx_ctx } => {
                let idx = pop!();
                let r = elem_load!(*arr, idx);
                let l = pop!();
                push!(bin_apply!(*op, *idx_ctx, l, r));
            }
            Op::BinLoadScalar { op, idx_ctx, slot } => {
                let r = pop!();
                let l = pop!();
                push!(bin_apply!(*op, *idx_ctx, l, r));
                push!(scalar_of!(*slot));
            }
            Op::Bin2 { op1, ctx1, op2, ctx2 } => {
                let r = pop!();
                let l = pop!();
                let v1 = bin_apply!(*op1, *ctx1, l, r);
                let l2 = pop!();
                push!(bin_apply!(*op2, *ctx2, l2, v1));
            }
            Op::StoreSlotEnter { slot, id } => {
                slots[*slot as usize] = Val::Num(pop!());
                stmt_enter!(*id);
            }
            Op::BinStoreSlot { op, idx_ctx, slot } => {
                let r = pop!();
                let l = pop!();
                slots[*slot as usize] = Val::Num(bin_apply!(*op, *idx_ctx, l, r));
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
                push!(elem_load!(*arr, idx));
            }
            Op::NumBin { n, op, idx_ctx } => {
                let l = pop!();
                push!(bin_apply!(*op, *idx_ctx, l, *n));
            }
            Op::LoadScalarNum { slot, n } => {
                push!(scalar_of!(*slot));
                push!(*n);
            }
            Op::StoreElemEnter { arr, id } => {
                let value = pop!();
                let idx = pop!();
                elem_store!(*arr, idx, value);
                stmt_enter!(*id);
            }
            Op::AdvanceJump { cur, step, target, block } => {
                let c = raw_num(slots[*cur as usize]);
                let st = raw_num(slots[*step as usize]);
                slots[*cur as usize] = Val::Num(c + st);
                pc = *target;
                enter!(*block);
            }
            Op::IterTickLoad { id, slot } => {
                iter_tick!(*id);
                push!(scalar_of!(*slot));
            }

            Op::Num(n) => push!(*n),
            Op::PushSlot(s) => {
                let v = slots[*s as usize];
                if is_unset(v) {
                    return Err(RuntimeError::UnboundVariable(func.slot_names[*s as usize].clone()));
                }
                arg_stack.push(v);
            }
            Op::LoadScalar(s) => push!(scalar_of!(*s)),
            Op::StoreSlot(s) => slots[*s as usize] = Val::Num(pop!()),
            Op::NewArray(s) => {
                let l = pop!();
                slots[*s as usize] = Val::Arr(heap.alloc(&func.slot_names[*s as usize], l)?);
            }
            Op::Len(s) => push!(arr_of!(*s as usize).len() as f64),
            Op::Input(idx) => {
                let (name, default) = &func.input_table[*idx as usize];
                push!(inputs.get_or(name, *default));
            }
            Op::LoadElem(s) => {
                let idx = pop!();
                push!(elem_load!(*s, idx));
            }
            Op::StoreElem(s) => {
                let value = pop!();
                let idx = pop!();
                elem_store!(*s, idx, value);
            }
            Op::Bin { op, idx_ctx } => {
                let r = pop!();
                let l = pop!();
                push!(bin_apply!(*op, *idx_ctx, l, r));
            }
            Op::Neg { idx_ctx } => {
                let v = pop!();
                if *idx_ctx {
                    tracer.ops(cur_stmt, 0, 1, 0);
                } else {
                    tracer.ops(cur_stmt, 1, 0, 0);
                }
                push!(-v);
            }
            Op::Not => {
                let v = pop!();
                tracer.ops(cur_stmt, 0, 1, 0);
                push!(if v == 0.0 { 1.0 } else { 0.0 });
            }
            Op::NormBoolRaw => {
                let v = pop!();
                push!(if v != 0.0 { 1.0 } else { 0.0 });
            }
            Op::Cmp(op) => {
                let r = pop!();
                let l = pop!();
                tracer.ops(cur_stmt, 1, 0, 0);
                push!(if op.apply(l, r) { 1.0 } else { 0.0 });
            }
            Op::CountIop => tracer.ops(cur_stmt, 0, 1, 0),
            Op::Abs => {
                let v = pop!();
                tracer.ops(cur_stmt, 1, 0, 0);
                push!(v.abs());
            }
            Op::Floor => {
                let v = pop!();
                tracer.ops(cur_stmt, 1, 0, 0);
                push!(v.floor());
            }
            Op::Min => {
                let b = pop!();
                let a = pop!();
                tracer.ops(cur_stmt, 1, 0, 0);
                push!(a.min(b));
            }
            Op::Max => {
                let b = pop!();
                let a = pop!();
                tracer.ops(cur_stmt, 1, 0, 0);
                push!(a.max(b));
            }
            Op::Lib(b) => {
                let (v, arg) = match b {
                    Builtin::Rnd => (rng.next_f64(), 0.0),
                    Builtin::Exp => {
                        let a = pop!();
                        (a.exp(), a)
                    }
                    Builtin::Log => {
                        let a = pop!();
                        (a.max(f64::MIN_POSITIVE).ln(), a)
                    }
                    Builtin::Sqrt => {
                        let a = pop!();
                        (a.abs().sqrt(), a)
                    }
                    Builtin::Sin => {
                        let a = pop!();
                        (a.sin(), a)
                    }
                    Builtin::Cos => {
                        let a = pop!();
                        (a.cos(), a)
                    }
                    Builtin::Pow => {
                        let b2 = pop!();
                        let a = pop!();
                        (a.powf(b2), a)
                    }
                    other => unreachable!("{other:?} is not a lib builtin"),
                };
                tracer.lib_call(cur_stmt, LIB_COUNTER_NAMES[lib_slot(*b)], arg);
                push!(v);
            }
            Op::JumpIfZero { target, taken, fall } => {
                if pop!() == 0.0 {
                    pc = *target;
                    enter!(*taken);
                } else {
                    enter!(*fall);
                }
            }
            Op::Jump { target, block } => {
                pc = *target;
                enter!(*block);
            }
            Op::StmtEnter(id) => stmt_enter!(*id),
            Op::SetCur(id) => cur_stmt = *id,
            Op::IterTick(id) => iter_tick!(*id),
            Op::IterTickWhile(_) => {
                tick!();
            }
            Op::JumpIfGeRaw { cur, hi, target, taken, fall } => {
                let c = raw_num(slots[*cur as usize]);
                let h = raw_num(slots[*hi as usize]);
                // exits on NaN too — a poisoned counter must not spin the loop
                if c.partial_cmp(&h) != Some(std::cmp::Ordering::Less) {
                    pc = *target;
                    enter!(*taken);
                } else {
                    enter!(*fall);
                }
            }
            Op::AdvanceRaw { cur, step } => {
                let c = raw_num(slots[*cur as usize]);
                let st = raw_num(slots[*step as usize]);
                slots[*cur as usize] = Val::Num(c + st);
            }
            Op::ClampStepRaw(s) => {
                let v = raw_num(slots[*s as usize]);
                slots[*s as usize] = Val::Num(v.max(f64::MIN_POSITIVE));
            }
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
                sp -= by_ref.len() - n_ref;
                let mut nums = stack[sp..].iter();
                let mut callee_slots = unset_slots(target.n_slots);
                for (slot, &r) in callee_slots.iter_mut().zip(by_ref) {
                    *slot = if r { refs.next() } else { nums.next().map(|v| Val::Num(*v)) }.expect("call argument");
                }
                // the callee's frame starts at `sp`
                if stack.len() < sp + target.max_stack {
                    stack.resize(sp + target.max_stack, 0.0);
                }
                let caller_slots = std::mem::replace(&mut slots, callee_slots);
                frames.push(Frame { func, pc, slots: caller_slots, saved_cur: cur_stmt });
                func = target;
                code = &func.code;
                pc = 0;
                enter!(func.entry_block);
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
                None => {
                    let ret = pop!();
                    return Ok((vm.blocks.profile(counts, vm.n_stmts, printed), tracer, ret));
                }
            },
            Op::Print => printed.push(pop!()),
            Op::Pop => sp -= 1,
            Op::Trap(e) => return Err((**e).clone()),
        }
    }
}

fn raw_num(v: Val) -> f64 {
    match v {
        Val::Num(n) => n,
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

fn is_unset(v: Val) -> bool {
    matches!(v, Val::Num(n) if is_unset_num(n))
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
        assert_eq!(
            OP_KIND_NAMES[op_kind(&Op::JumpIfGeRaw { cur: 0, hi: 0, target: 0, taken: 0, fall: 0 })],
            "JumpIfGeRaw"
        );
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
        assert_eq!(kind::JUMP, op_kind(&Op::Jump { target: 0, block: 0 }));
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
    fn max_stack_is_the_hand_counted_depth() {
        let p = parse(
            "fn main() { let x = 1 + 2 * (3 - 4 / 5); print(x); return f(x, 6 + (7 && 8)); }
             fn f(a, b) { return a; }",
        )
        .unwrap();
        let vm = lower(&p).unwrap();
        // `1 + 2 * (3 - 4 / 5)` holds 1, 2, 3, 4 and 5 before the first
        // divide; `f(x, 6 + (7 && 8))` holds at most 6, 7 and 8 (`x` is a
        // bare name and travels on the argument stack)
        assert_eq!(vm.funcs[0].max_stack, 5);
        assert_eq!(vm.funcs[1].max_stack, 1);
        // fusion keeps every intermediate depth, so the bound carries over
        assert_eq!(compile(&p).unwrap().funcs[0].max_stack, 5);
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
