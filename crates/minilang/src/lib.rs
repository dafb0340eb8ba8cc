//! # xflow-minilang — the mini source language and analysis engine
//!
//! Minilang is this reproduction's stand-in for the Fortran/C production
//! codes the paper analyzes. The crate provides the full front half of the
//! paper's workflow (Figure 1):
//!
//! * a parser for the small C-like language ([`parse`]),
//! * one production execution engine, the bytecode VM ([`vm`]): one
//!   bytecode, [`compile`] (superinstruction-fused by [`fuse`]), and one
//!   run, [`VmProgram::run`] (plus its instruction-counting twin
//!   [`VmProgram::run_profiled`]). [`profile`] runs it as the paper's one
//!   local gcov-instrumented run, collecting branch outcome frequencies,
//!   loop trip counts, and dynamic instruction mixes; the ground-truth
//!   simulator replays programs on it with a tracer attached. The types
//!   every run shares — [`InputSpec`], [`Profile`], [`Tracer`],
//!   [`Limits`], [`RuntimeError`] — live in [`runtime`];
//! * the reference oracles ([`mod@reference`]), kept only to check the VM
//!   against: the tree-walking interpreter ([`reference::run`]), which
//!   defines the semantics, and the unfused bytecode
//!   ([`reference::compile_unfused`]), which fusion is checked and
//!   measured against. All three produce bit-identical results,
//!   profiles, errors, and [`Tracer`] event streams;
//! * the source-to-skeleton translator ([`translate()`]), the ROSE-engine
//!   substitute that statically characterizes instruction mixes, array
//!   accesses, and control structure, and folds the profile into the
//!   generated SKOPE-style skeleton.
//!
//! ```
//! use xflow_minilang::{parse, InputSpec, profile, translate};
//!
//! let src = r#"
//! fn main() {
//!     let n = input("N", 32);
//!     let a = zeros(n);
//!     @kernel: for i in 0 .. n { a[i] = a[i] * 0.5 + 1.0; }
//! }
//! "#;
//! let prog = parse(src).unwrap();
//! let prof = profile(&prog, &InputSpec::new()).unwrap();
//! let t = translate(&prog, &prof).unwrap();
//! assert!(xflow_skeleton::validate(&t.skeleton).is_empty());
//! ```

pub mod ast;
pub mod fuse;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod reference;
pub mod runtime;
pub mod translate;
pub mod vm;

pub use ast::{Block, Builtin, Function, MStmtId, Program, Stmt, StmtKind};
pub use fuse::{FUSED_KIND_NAMES, NUM_FUSED_KINDS};
pub use parser::parse;
pub use printer::print;
// perfbench's oracle replay is the only user of this crate-root alias;
// everything else calls `reference::run`.
#[doc(hidden)]
pub use reference::run as run_with_limits_seeded;
pub use runtime::{
    BranchStats, InputSpec, Limits, LoopStats, NullTracer, OpCounts, Profile, RuntimeError, Tracer, DEFAULT_SEED,
};
pub use translate::{initial_env, translate, TranslateError, Translation};
pub use vm::{compile, profile, profile_seeded, InstrProfile, VmProgram, NUM_OP_KINDS, OP_KIND_NAMES};

/// Wire-format version of this crate's serializable artifacts
/// ([`Program`], [`Profile`], [`Translation`], [`InputSpec`]).
///
/// Bump whenever a serialized layout changes shape; content-addressed caches
/// fold this into their keys so stale artifacts are never deserialized.
pub fn schema_version() -> u32 {
    1
}
